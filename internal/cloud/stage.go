package cloud

// Stage-server mode: a server configured with WithStage is one hop of a
// multi-hop partitioned deployment (core.Partition). Every hop holds the FULL
// serving chain and runs whatever unit span a MsgRelayRoute frame's route
// assigns it, then forwards the outputs downstream or — when the route has
// no boundaries left — argmaxes the logits and answers with the usual
// MsgResultBatch (the SAME post-processing as classifyBatchFrame, so chained
// predictions are bitwise identical to the monolithic forward). The cuts live
// in the frame, not in server config, which is what lets the edge's live
// re-placement solver move a cut mid-run: in-flight frames complete on the
// old route while new frames ship the new one, and no server is
// reconfigured. A fixed chain is the same frame with fixed cuts.
//
// Downstream is an ordered FAILOVER set (PR 6 exclusion-window semantics): a
// hop that cannot reach its preferred next hop tries the alternates in order,
// so a chain heals hop-locally while the edge keeps serving. A shed from
// downstream propagates upstream as MsgShed — the zero-charge hold signal —
// never as a generic error. Every relay reply piggybacks a per-hop
// StageStatus vector (measured stage service time + the hop's own downstream
// link estimate), the telemetry the edge's re-placement solver runs on.
//
// This package deliberately depends only on the Downstream interface, never
// on the edge package; shed-ness of a downstream error is detected through
// errors.Is against core.ErrShed and the optional RetryAfterHint method,
// both satisfied by edge.ShedError.

import (
	"errors"
	"fmt"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/linkest"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// Downstream is the transport a forwarding hop relays routed frames through.
// *edge.TCPClient satisfies it, so a chain hop reuses the full edge transport
// stack — pipelining, redial with backoff, per-hop link estimation — for its
// own downstream leg. Both methods return the downstream's per-hop
// StageStatus vector alongside the results.
type Downstream interface {
	// RelayRouted ships an activation batch whose next span starts at pos
	// along the remaining route bounds.
	RelayRouted(batch *tensor.Tensor, pos int, bounds []int) ([]protocol.Result, []protocol.StageStatus, error)
	// RelayProbe ships a zero-instance probe along the same route shape.
	RelayProbe(pos int, bounds []int) ([]protocol.StageStatus, error)
}

// downstreamLink exposes the transport's live link estimate, reported in this
// hop's own StageStatus entry so the edge solver sees every inter-hop link.
type downstreamLink interface {
	LinkEstimate() linkest.Estimate
}

// retryAfterHint extracts the hold hint a shed error carries upstream
// (edge.ShedError implements it).
type retryAfterHint interface{ RetryAfterHint() time.Duration }

// StageConfig configures a server's role in a relay chain.
type StageConfig struct {
	// Chain is the FULL serving chain at unit granularity
	// (core.FlattenChain): the hop runs whatever span each routed frame
	// assigns it. Required for stage mode.
	Chain []nn.Layer
	// Downstreams is the ordered failover set this hop forwards through:
	// entries are tried in order, an entry that fails is excluded for a
	// window (sheds: the carried retry-after; transport failures:
	// FailureExclusion) and the next is tried — the PR 6 replica-exclusion
	// semantics applied hop-locally. Empty marks a terminal-only hop.
	Downstreams []Downstream
	// MaxInFlight bounds concurrent relay dispatches per connection
	// (default 16). Relay dispatches run concurrently — a non-terminal hop
	// BLOCKS on its downstream round trip, and handling relays inline would
	// stall the connection's read loop and collapse chain pipelining to
	// lockstep — so the bound is what turns a fast upstream into TCP
	// backpressure instead of an unbounded goroutine/tensor backlog.
	MaxInFlight int
	// FailureExclusion is how long a downstream that failed at the transport
	// level is excluded from failover selection (default 250ms — long enough
	// to stop hammering a dead peer, short enough that a restarted hop is
	// back in rotation within a blink).
	FailureExclusion time.Duration
}

func (c *StageConfig) fillDefaults() {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 16
	}
	if c.FailureExclusion <= 0 {
		c.FailureExclusion = 250 * time.Millisecond
	}
}

// defaultDownstreamRetry is the hold hint propagated upstream when a
// downstream shed carried none.
const defaultDownstreamRetry = 50 * time.Millisecond

// Queue-normalized stage service-time EWMA (the PR 8 svcEWMA shape).
const (
	stageServiceAlpha      = 0.3
	minStageServiceSamples = 3
)

// downstreamState is one failover entry plus its exclusion window; the slice
// of entries is fixed at config time, only the window fields mutate.
type downstreamState struct {
	d     Downstream
	until time.Time // exclusion window end; zero or past = open
	shed  bool      // current window caused only by sheds
}

// WithStage enables stage-server mode: MsgRelayRoute frames run
// route-assigned spans of cfg.Chain and forward downstream (or terminate the
// chain). A server may combine a stage with raw/tail models and serve all
// frame types; a pure relay hop passes nil models to NewServer.
func WithStage(cfg StageConfig) Option {
	cfg.fillDefaults()
	return func(s *Server) {
		s.chain = cfg.Chain
		s.stageInflight = cfg.MaxInFlight
		s.failureExcl = cfg.FailureExclusion
		s.downs = nil
		for _, d := range cfg.Downstreams {
			if d != nil {
				s.downs = append(s.downs, &downstreamState{d: d})
			}
		}
	}
}

// stageMode reports whether this server serves relay frames at all.
func (s *Server) stageMode() bool { return len(s.chain) > 0 }

// timedStageForward runs one relay forward pass and folds its duration into
// the service-time EWMA, normalized by how many relay dispatches shared the
// cores while it ran.
func (s *Server) timedStageForward(run func(*tensor.Tensor) *tensor.Tensor, x *tensor.Tensor, n int) (*tensor.Tensor, error) {
	active := s.relayActive.Add(1)
	start := time.Now()
	out, err := safeLogits(run, x)
	dur := time.Since(start)
	s.relayActive.Add(-1)
	if err == nil {
		s.noteStageService(dur, n, active)
	}
	return out, err
}

// noteStageService folds one measured stage forward into the EWMA piggybacked
// on relay replies. The sample is per-instance wall time divided by the relay
// dispatches in flight (the PR 8 queue-normalized shape): a contended hop
// reports its true per-instance cost, not its queueing delay, so the edge
// solver doesn't misread upstream congestion as a slow device.
func (s *Server) noteStageService(dur time.Duration, instances int, active int64) {
	if instances <= 0 || dur <= 0 {
		return
	}
	sample := dur.Seconds() / float64(instances)
	if active > 1 {
		sample /= float64(active)
	}
	s.svcMu.Lock()
	if s.svcSamples == 0 {
		s.svcEWMA = sample
	} else {
		s.svcEWMA = stageServiceAlpha*sample + (1-stageServiceAlpha)*s.svcEWMA
	}
	s.svcSamples++
	s.svcMu.Unlock()
}

// stageStatus assembles this hop's StageStatus entry for a relay reply. used
// is the downstream the frame was forwarded through (nil at the terminal
// hop); its live link estimate becomes the hop's reported downstream link.
func (s *Server) stageStatus(used Downstream) protocol.StageStatus {
	var st protocol.StageStatus
	s.svcMu.Lock()
	if s.svcSamples >= minStageServiceSamples {
		st.ServiceNanos = uint64(s.svcEWMA * 1e9)
	}
	s.svcMu.Unlock()
	if dl, ok := used.(downstreamLink); ok {
		est := dl.LinkEstimate()
		if est.Mbps > 0 {
			st.DownMbps = float32(est.Mbps)
		}
		if est.RTT > 0 {
			st.DownRTTNanos = uint64(est.RTT)
		}
	}
	return st
}

// downOrder snapshots the failover order: open entries first (config order),
// then excluded entries as a last resort — with no healthy alternate it is
// better to retry an excluded hop than to fail the frame outright.
func (s *Server) downOrder() []int {
	now := time.Now()
	s.downMu.Lock()
	defer s.downMu.Unlock()
	order := make([]int, 0, len(s.downs))
	var excluded []int
	for i, ds := range s.downs {
		if now.Before(ds.until) {
			excluded = append(excluded, i)
		} else {
			order = append(order, i)
		}
	}
	return append(order, excluded...)
}

// excludeDown opens or extends entry i's exclusion window after a failed
// attempt. Windows EXTEND, never shorten (the PR 6 invariant: overlapping
// failures only push the reopen time out), and the shed flag stays true only
// while EVERY failure inside the current window was a shed — one transport
// failure relabels the window until it lapses.
func (s *Server) excludeDown(i int, window time.Duration, shedOrigin bool) {
	now := time.Now()
	s.downMu.Lock()
	ds := s.downs[i]
	if now.Before(ds.until) {
		ds.shed = ds.shed && shedOrigin
	} else {
		ds.shed = shedOrigin
	}
	if u := now.Add(window); u.After(ds.until) {
		ds.until = u
	}
	s.downMu.Unlock()
}

// tryDownstreams runs attempt against each downstream in failover order until
// one succeeds, excluding the ones that fail. On total failure it reports
// whether EVERY attempt was refused by admission control (shed) — the caller
// must then answer MsgShed, preserving the zero-charge hold contract along
// the whole chain — plus the largest retry-after hint seen.
func (s *Server) tryDownstreams(attempt func(d Downstream) error) (used Downstream, shed bool, retryAfter time.Duration, err error) {
	allShed := true
	var firstErr error
	for _, i := range s.downOrder() {
		d := s.downs[i].d
		aerr := attempt(d)
		if aerr == nil {
			return d, false, 0, nil
		}
		isShed := errors.Is(aerr, core.ErrShed)
		window := s.failureExcl
		if isShed {
			window = defaultDownstreamRetry
			var h retryAfterHint
			if errors.As(aerr, &h) {
				if ra := h.RetryAfterHint(); ra > 0 {
					window = ra
					if ra > retryAfter {
						retryAfter = ra
					}
				}
			}
		}
		allShed = allShed && isShed
		s.excludeDown(i, window, isShed)
		if firstErr == nil {
			firstErr = aerr
		}
	}
	if retryAfter <= 0 {
		retryAfter = defaultDownstreamRetry
	}
	return nil, allShed, retryAfter, firstErr
}

// shedFrame answers a frame with a MsgShed reply carrying the hold hint and
// this hop's load snapshot.
func (s *Server) shedFrame(id uint64, retryAfter time.Duration) protocol.Frame {
	return protocol.Frame{
		Type:    protocol.MsgShed,
		ID:      id,
		Payload: protocol.EncodeShed(retryAfter, s.loadStatus()),
	}
}

// chainReply assembles the MsgResultBatch reply of a relay frame: results,
// this hop's load snapshot, and the per-hop status vector with this hop's
// entry PREPENDED to whatever the downstream reported — so the edge receives
// hop-ordered telemetry with zero extra round trips.
func (s *Server) chainReply(id uint64, results []protocol.Result, used Downstream, downHops []protocol.StageStatus) protocol.Frame {
	hops := append([]protocol.StageStatus{s.stageStatus(used)}, downHops...)
	return protocol.Frame{
		Type:    protocol.MsgResultBatch,
		ID:      id,
		Payload: protocol.EncodeResultsChain(results, s.loadStatus(), hops),
	}
}

// spanForward composes a chain unit span in eval mode.
func spanForward(units []nn.Layer) func(*tensor.Tensor) *tensor.Tensor {
	return func(x *tensor.Tensor) *tensor.Tensor {
		for _, u := range units {
			x = u.Forward(x, false)
		}
		return x
	}
}

// routedFrame serves one MsgRelayRoute frame: run the unit span the route
// assigns this hop, then forward with the leading boundary consumed — or,
// when no boundaries remain, terminate the chain for THIS frame. The cuts
// travel with the frame, so two frames on the same connection may run
// different spans here: exactly what a live cut move looks like mid-drain.
// A probe (no tensor body) follows the same route without running a unit.
func (s *Server) routedFrame(f protocol.Frame) protocol.Frame {
	pos, bounds, t, err := protocol.DecodeRoutedActivation(f.Payload)
	if err != nil {
		s.errorCount.Add(1)
		return errorFrame(f.ID, err.Error())
	}
	if t != nil && t.Dims() < 2 {
		// Routed cuts may sit past the flattening layers, so rank-2
		// [batch, features] activations are as legal as NCHW here — the only
		// requirement is a batch dimension to count instances by.
		s.errorCount.Add(1)
		return errorFrame(f.ID, fmt.Sprintf("expected batched activation tensor, got rank %d", t.Dims()))
	}
	L := len(s.chain)
	if pos >= L {
		s.errorCount.Add(1)
		return errorFrame(f.ID, fmt.Sprintf("route position %d past serving chain of %d units", pos, L))
	}
	if len(bounds) > 0 && bounds[len(bounds)-1] >= L {
		// Catch a bad route here rather than hops later: boundaries are
		// strictly increasing, so checking the last covers them all.
		s.errorCount.Add(1)
		return errorFrame(f.ID, fmt.Sprintf("route boundary %d past serving chain of %d units", bounds[len(bounds)-1], L))
	}
	if len(bounds) > 0 && len(s.downs) == 0 {
		s.errorCount.Add(1)
		return errorFrame(f.ID, fmt.Sprintf("route continues past this hop (%d boundaries left) but no downstream is configured", len(bounds)))
	}
	if t == nil {
		return s.probeFrame(f.ID, bounds)
	}
	next := L
	if len(bounds) > 0 {
		next = bounds[0]
	}
	n := t.Dim(0)
	out, err := s.timedStageForward(spanForward(s.chain[pos:next]), t, n)
	if err != nil {
		s.errorCount.Add(1)
		return errorFrame(f.ID, err.Error())
	}
	if len(bounds) == 0 {
		// Terminal hop: identical post-processing to classifyBatchFrame, so a
		// chained forward answers bitwise like the monolithic server would.
		results := make([]protocol.Result, n)
		for i := range results {
			pred, conf := argmaxRow(out.Row(i))
			results[i] = protocol.Result{Pred: int32(pred), Conf: conf}
		}
		s.instServed.Add(uint64(n))
		return s.chainReply(f.ID, results, nil, nil)
	}
	var results []protocol.Result
	var downHops []protocol.StageStatus
	used, shed, retryAfter, err := s.tryDownstreams(func(d Downstream) error {
		rs, hs, aerr := d.RelayRouted(out, bounds[0], bounds[1:])
		if aerr != nil {
			return aerr
		}
		results, downHops = rs, hs
		return nil
	})
	if err != nil {
		return s.downstreamFailure(f.ID, shed, retryAfter, err)
	}
	if len(results) != n {
		s.errorCount.Add(1)
		return errorFrame(f.ID, fmt.Sprintf("downstream returned %d results for %d instances", len(results), n))
	}
	s.relayed.Add(uint64(n))
	return s.chainReply(f.ID, results, used, downHops)
}

// probeFrame serves a zero-instance chain probe: no unit runs; a hop with no
// boundaries left answers an empty result batch carrying its own status, a
// forwarding hop relays the probe downstream (with failover) and prepends its
// status — so one probe verifies every transport leg of the route and returns
// the full per-hop telemetry vector. Like routed frames, it forwards only
// while boundaries remain.
func (s *Server) probeFrame(id uint64, bounds []int) protocol.Frame {
	if len(bounds) == 0 {
		return s.chainReply(id, nil, nil, nil)
	}
	var downHops []protocol.StageStatus
	used, shed, retryAfter, err := s.tryDownstreams(func(d Downstream) error {
		hs, aerr := d.RelayProbe(bounds[0], bounds[1:])
		if aerr != nil {
			return aerr
		}
		downHops = hs
		return nil
	})
	if err != nil {
		return s.downstreamFailure(id, shed, retryAfter, err)
	}
	return s.chainReply(id, nil, used, downHops)
}

// downstreamFailure answers a frame no downstream would serve. When every
// reachable next hop refused by admission control, the refusal — not a
// failure — propagates upstream as MsgShed so the edge takes its zero-charge
// hold instead of charging a retry; anything else is a downstream error.
func (s *Server) downstreamFailure(id uint64, shed bool, retryAfter time.Duration, err error) protocol.Frame {
	if shed {
		return s.shedFrame(id, retryAfter)
	}
	s.errorCount.Add(1)
	return errorFrame(id, fmt.Sprintf("downstream relay: %v", err))
}
