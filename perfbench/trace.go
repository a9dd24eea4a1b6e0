package main

// Tracing from outside the program: the benchmark wraps the public seams of
// the serving path (nn.Layer units, cloud.Model, net.Conn) and records one
// span per call while the tracer is on. Spans stay in memory and are written
// out when the run ends.
//
// A span's parent is the innermost span still open on the same goroutine.
// Every edge call of a request (the MEANet forwards, the chain client's
// local stage, the frame write) runs on the goroutine that called
// Runtime.Classify, so its spans parent to that Classify span and share its
// request id. Server-side spans run on server goroutines: they carry their
// hop but no request, because nothing outside the program links them to one.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/tensor"
)

// Span names.
const (
	spanClassify = "classify" // one Runtime.Classify call (a request)
	spanUnit     = "unit"     // one nn.Layer unit forward
	spanModel    = "model"    // one server-side model forward
	spanWrite    = "write"    // one frame written to a traced connection
)

// span is one recorded call. Times are nanoseconds since the tracer epoch.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"` // nn kind of a unit span
	Where  string `json:"where"`          // section or hop: main, extension, stage0, cloud, hop1, ...
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	N      int    `json:"n"` // images (classify, unit, model) or bytes (write)
	MACs   int64  `json:"macs,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// openSpan is a span begun but not yet ended on some goroutine.
type openSpan struct{ id, req int64 }

// tracer is the in-memory span recorder. A nil tracer or one switched off
// records nothing; wrappers then only forward.
type tracer struct {
	on    atomic.Bool
	epoch time.Time

	mu     sync.Mutex // guards spans, stacks, nextID
	spans  []span
	stacks map[int64][]openSpan // goroutine id → open spans, innermost last
	nextID int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), stacks: make(map[int64][]openSpan)}
}

// token carries a begun span to its end.
type token struct {
	id, parent, req, gid, start int64
}

// begin opens a span on the calling goroutine. newRequest starts a request
// (the span's id becomes its request id); otherwise the span inherits the
// request of its parent. ok is false when the tracer is not recording.
func (t *tracer) begin(newRequest bool) (tok token, ok bool) {
	if t == nil || !t.on.Load() {
		return token{}, false
	}
	gid := goid()
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	tok = token{id: t.nextID, gid: gid, start: start}
	st := t.stacks[gid]
	if n := len(st); n > 0 {
		tok.parent, tok.req = st[n-1].id, st[n-1].req
	}
	if newRequest {
		tok.req = tok.id
	}
	t.stacks[gid] = append(st, openSpan{id: tok.id, req: tok.req})
	return tok, true
}

// end closes the span begun with tok and records it.
func (t *tracer) end(tok token, s span) {
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	st := t.stacks[tok.gid]
	if n := len(st); n > 0 && st[n-1].id == tok.id {
		st = st[:n-1]
	}
	if len(st) == 0 {
		delete(t.stacks, tok.gid)
	} else {
		t.stacks[tok.gid] = st
	}
	s.ID, s.Parent, s.Req, s.Start, s.End = tok.id, tok.parent, tok.req, tok.start, end
	t.spans = append(t.spans, s)
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	return out
}

// goid is the calling goroutine's id, parsed from its stack header
// ("goroutine 42 [running]:"). Go has no goroutine-local storage; the id is
// what lets a wrapped unit find the request its goroutine is serving.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// selfTimes returns each span's duration minus the part of it that its
// child spans cover (overlapping children count once).
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}

// writeSpans writes spans as JSON lines.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// unitKind names the nn kind of a chain unit for the per-layer metrics.
func unitKind(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D, *nn.DepthwiseConv2D:
		return "conv"
	case *nn.BatchNorm2D:
		return "bn"
	case *nn.ReLU, *nn.ReLU6:
		return "relu"
	case *nn.ResidualBlock, *nn.InvertedResidual:
		return "residual"
	case *nn.AvgPool2D, *nn.MaxPool2D, *nn.GlobalAvgPool, *nn.Flatten:
		return "pool"
	case *nn.Linear:
		return "linear"
	default:
		return fmt.Sprintf("%T", l)
	}
}

// tracedUnit wraps one chain unit. macs is the unit's cost per image,
// priced on the unwrapped chain.
type tracedUnit struct {
	inner nn.Layer
	t     *tracer
	kind  string
	where string
	macs  int64
}

func (u *tracedUnit) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	tok, ok := u.t.begin(false)
	y := u.inner.Forward(x, train)
	if ok {
		n := x.Dim(0)
		u.t.end(tok, span{Name: spanUnit, Kind: u.kind, Where: u.where, N: n, MACs: u.macs * int64(n)})
	}
	return y
}

func (u *tracedUnit) Backward(dy *tensor.Tensor) *tensor.Tensor { return u.inner.Backward(dy) }
func (u *tracedUnit) Params() []*nn.Param                       { return u.inner.Params() }

// wrapUnits wraps every unit of a flattened chain; macs[i] is unit i's
// per-image cost.
func wrapUnits(t *tracer, where string, units []nn.Layer, macs []int64) []nn.Layer {
	out := make([]nn.Layer, len(units))
	for i, u := range units {
		out[i] = &tracedUnit{inner: u, t: t, kind: unitKind(u), where: where, macs: macs[i]}
	}
	return out
}

// tracedModel wraps a server-side model: one model span per forward.
type tracedModel struct {
	inner cloud.Model
	t     *tracer
	where string
}

func (m *tracedModel) Logits(x *tensor.Tensor, train bool) *tensor.Tensor {
	tok, ok := m.t.begin(false)
	y := m.inner.Logits(x, train)
	if ok {
		m.t.end(tok, span{Name: spanModel, Where: m.where, N: x.Dim(0)})
	}
	return y
}

// modelLayer is tracedModel for the halves of a cloud.Tail, which the
// server calls as layers.
type modelLayer struct {
	inner nn.Layer
	t     *tracer
	where string
}

func (m *modelLayer) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	tok, ok := m.t.begin(false)
	y := m.inner.Forward(x, train)
	if ok {
		m.t.end(tok, span{Name: spanModel, Where: m.where, N: x.Dim(0)})
	}
	return y
}

func (m *modelLayer) Backward(dy *tensor.Tensor) *tensor.Tensor { return m.inner.Backward(dy) }
func (m *modelLayer) Params() []*nn.Param                       { return m.inner.Params() }

// connCounters count a traced connection's traffic whether or not the
// tracer is recording.
type connCounters struct {
	frames, bytesOut, bytesIn, writeNs atomic.Int64
}

func (c *connCounters) snapshot() connTotals {
	return connTotals{c.frames.Load(), c.bytesOut.Load(), c.bytesIn.Load(), c.writeNs.Load()}
}

type connTotals struct{ frames, bytesOut, bytesIn, writeNs int64 }

func (a connTotals) sub(b connTotals) connTotals {
	return connTotals{a.frames - b.frames, a.bytesOut - b.bytesOut, a.bytesIn - b.bytesIn, a.writeNs - b.writeNs}
}

func (a connTotals) add(b connTotals) connTotals {
	return connTotals{a.frames + b.frames, a.bytesOut + b.bytesOut, a.bytesIn + b.bytesIn, a.writeNs + b.writeNs}
}

// tracedConn wraps a client connection. The protocol writes one frame per
// Write call, so each Write is one frame; the write time includes any link
// shaping beneath the wrapper.
type tracedConn struct {
	net.Conn
	t     *tracer
	where string
	c     *connCounters
}

func (c *tracedConn) Write(p []byte) (int, error) {
	tok, ok := c.t.begin(false)
	start := time.Now()
	n, err := c.Conn.Write(p)
	c.c.writeNs.Add(time.Since(start).Nanoseconds())
	c.c.frames.Add(1)
	c.c.bytesOut.Add(int64(n))
	if ok {
		c.t.end(tok, span{Name: spanWrite, Where: c.where, N: n})
	}
	return n, err
}

func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.bytesIn.Add(int64(n))
	return n, err
}
