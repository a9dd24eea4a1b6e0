package cloud

import (
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// identityChain is a two-unit serving chain whose spans change nothing: the
// failover tests route frames [0,1) here and forward [1,2) downstream.
var identityChain = []nn.Layer{nn.Identity{}, nn.Identity{}}

// startStageServer brings up one stage hop on loopback.
func startStageServer(t *testing.T, chain []nn.Layer, downs ...Downstream) *Server {
	t.Helper()
	s, err := NewServer(nil, nil, WithStage(StageConfig{Chain: chain, Downstreams: downs}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func dialHop(t *testing.T, s *Server) *edge.TCPClient {
	t.Helper()
	c, err := edge.DialCloud(s.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestStageChainMatchesMonolithic relays a batch through a two-hop stage
// chain and checks predictions AND confidences bitwise against the in-process
// monolithic forward — the stages reuse the classifier's own layer objects,
// so any drift would be a serving-path bug, not numerics.
func TestStageChainMatchesMonolithic(t *testing.T) {
	cls := testClassifier(t, 41)
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	if len(chain) < 3 {
		t.Fatalf("test chain too short to cut: %d units", len(chain))
	}
	terminal := startStageServer(t, chain)
	first := startStageServer(t, chain, dialHop(t, terminal))
	client := dialHop(t, first)

	rng := rand.New(rand.NewSource(42))
	batch := tensor.Randn(rng, 1, 4, 3, 8, 8)
	rs, _, err := client.RelayRouted(batch, 0, []int{len(chain) / 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("%d results for 4 instances", len(rs))
	}
	logits := cls.Logits(batch, false)
	for i, r := range rs {
		// The contract is chain == monolithic POST-PROCESSED output, so the
		// reference goes through the server's own argmax helper.
		p, c := argmaxRow(logits.Row(i))
		wantPred, wantConf := int32(p), c
		if r.Pred != wantPred || r.Conf != wantConf {
			t.Fatalf("row %d: chain gave %d/%v, monolithic %d/%v", i, r.Pred, r.Conf, wantPred, wantConf)
		}
	}

	// Accounting: the first hop forwarded, the terminal hop served.
	if st := first.Stats(); st.Relayed != 4 || st.InstancesServed != 0 {
		t.Fatalf("first hop stats %+v", st)
	}
	if st := terminal.Stats(); st.Relayed != 0 || st.InstancesServed != 4 {
		t.Fatalf("terminal hop stats %+v", st)
	}
}

// lateDown is a Downstream whose transport is dialed after the server that
// forwards through it was built, so two hops can name each other.
type lateDown struct {
	c atomic.Pointer[edge.TCPClient]
}

func (d *lateDown) RelayRouted(batch *tensor.Tensor, pos int, bounds []int) ([]protocol.Result, []protocol.StageStatus, error) {
	return d.c.Load().RelayRouted(batch, pos, bounds)
}

func (d *lateDown) RelayProbe(pos int, bounds []int) ([]protocol.StageStatus, error) {
	return d.c.Load().RelayProbe(pos, bounds)
}

// TestRelayCyclicHopsTerminate is the hop-count guard: two hops configured
// as EACH OTHER's downstream form a cycle, yet a frame still crosses exactly
// len(bounds)+1 hops — every hop consumes one strictly increasing boundary —
// and answers bitwise like the monolithic forward.
func TestRelayCyclicHopsTerminate(t *testing.T) {
	cls := testClassifier(t, 43)
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	if len(chain) < 4 {
		t.Fatalf("test chain too short for 4 hops: %d units", len(chain))
	}
	toA, toB := &lateDown{}, &lateDown{}
	a := startStageServer(t, chain, toB)
	b := startStageServer(t, chain, toA)
	toA.c.Store(dialHop(t, a))
	toB.c.Store(dialHop(t, b))
	client := dialHop(t, a)

	rng := rand.New(rand.NewSource(44))
	batch := tensor.Randn(rng, 1, 2, 3, 8, 8)
	L := len(chain)
	rs, hops, err := client.RelayRouted(batch, 0, []int{L / 4, L / 2, 3 * L / 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) != 4 {
		t.Fatalf("frame crossed %d hops, want 4 (A, B, A, B)", len(hops))
	}
	logits := cls.Logits(batch, false)
	for i, r := range rs {
		p, c := argmaxRow(logits.Row(i))
		if r.Pred != int32(p) || r.Conf != c {
			t.Fatalf("row %d: cyclic chain gave %d/%v, monolithic %d/%v", i, r.Pred, r.Conf, p, c)
		}
	}
	// A forwarded twice, B forwarded once and then terminated the frame.
	if st := a.Stats(); st.Relayed != 4 || st.InstancesServed != 0 {
		t.Fatalf("hop A stats %+v", st)
	}
	if st := b.Stats(); st.Relayed != 2 || st.InstancesServed != 2 {
		t.Fatalf("hop B stats %+v", st)
	}
	// A probe along the same route stops after the same four hops.
	if hops, err := client.RelayProbe(0, []int{L / 4, L / 2, 3 * L / 4}); err != nil || len(hops) != 4 {
		t.Fatalf("cyclic probe: %d hops, err %v (want 4, nil)", len(hops), err)
	}
}

// TestStageOnlyServerRejectsClassify pins the pure-relay-hop contract: a
// server with only a stage answers classify frames with an error (not a
// crash, not a hang) and keeps the connection serving relays.
func TestStageOnlyServerRejectsClassify(t *testing.T) {
	cls := testClassifier(t, 45)
	s := startStageServer(t, core.FlattenChain(cls.Backbone, cls.Exit))
	client := dialHop(t, s)
	rng := rand.New(rand.NewSource(46))
	img := tensor.Randn(rng, 1, 3, 8, 8)
	if _, _, err := client.Classify(img); err == nil || !strings.Contains(err.Error(), "raw mode not supported") {
		t.Fatalf("stage-only server served a raw classify: %v", err)
	}
	if _, _, err := client.RelayRouted(img.Reshape(1, 3, 8, 8), 0, nil); err != nil {
		t.Fatalf("relay broken after rejected classify: %v", err)
	}
}

// TestRelayRejectsMalformedPayloads: garbage payloads and unbatched tensors
// get error frames; the connection survives.
//
// meanet:frame-writer
func TestRelayRejectsMalformedPayloads(t *testing.T) {
	cls := testClassifier(t, 47)
	s := startStageServer(t, core.FlattenChain(cls.Backbone, cls.Exit))
	client := dialHop(t, s)

	rng := rand.New(rand.NewSource(48))
	flat := tensor.Randn(rng, 1, 6) // rank 1 — client itself must refuse
	if _, _, err := client.RelayRouted(flat, 0, nil); err == nil {
		t.Fatal("client relayed an unbatched tensor")
	}
	// The server-side rank check needs a hand-built frame.
	payload, err := protocol.EncodeRoutedActivation(0, nil, flat)
	if err != nil {
		t.Fatal(err)
	}
	resp := s.dispatch(protocol.Frame{Type: protocol.MsgRelayRoute, ID: 7, Payload: payload})
	if resp.Type != protocol.MsgError || !strings.Contains(string(resp.Payload), "batched") {
		t.Fatalf("rank-1 activation answered with %s %q", resp.Type, resp.Payload)
	}
	if resp := s.dispatch(protocol.Frame{Type: protocol.MsgRelayRoute, ID: 8, Payload: []byte{1, 2}}); resp.Type != protocol.MsgError {
		t.Fatalf("garbage relay payload answered with %s", resp.Type)
	}
	if _, _, err := client.RelayRouted(tensor.Randn(rng, 1, 1, 3, 8, 8), 0, nil); err != nil {
		t.Fatalf("relay broken after rejected payloads: %v", err)
	}
}

// In-process fake downstreams for the failover and shed-propagation tests:
// the failover machinery must work against a minimal transport with no link
// estimate. Probes behave like relays.

// failingDown fails every attempt at the transport level.
type failingDown struct{ calls atomic.Int64 }

func (d *failingDown) RelayRouted(*tensor.Tensor, int, []int) ([]protocol.Result, []protocol.StageStatus, error) {
	_, err := d.RelayProbe(0, nil)
	return nil, nil, err
}

func (d *failingDown) RelayProbe(int, []int) ([]protocol.StageStatus, error) {
	d.calls.Add(1)
	return nil, errors.New("dial tcp: connection refused (test stand-in)")
}

// sheddingDown refuses every attempt by admission control, carrying a hint.
type sheddingDown struct {
	retry time.Duration
	calls atomic.Int64
}

func (d *sheddingDown) RelayRouted(*tensor.Tensor, int, []int) ([]protocol.Result, []protocol.StageStatus, error) {
	_, err := d.RelayProbe(0, nil)
	return nil, nil, err
}

func (d *sheddingDown) RelayProbe(int, []int) ([]protocol.StageStatus, error) {
	d.calls.Add(1)
	return nil, &edge.ShedError{RetryAfter: d.retry}
}

// okDown terminates the chain in-process with zeroed results.
type okDown struct{ calls atomic.Int64 }

func (d *okDown) RelayRouted(batch *tensor.Tensor, _ int, _ []int) ([]protocol.Result, []protocol.StageStatus, error) {
	d.calls.Add(1)
	return make([]protocol.Result, batch.Dim(0)), nil, nil
}

func (d *okDown) RelayProbe(int, []int) ([]protocol.StageStatus, error) {
	d.calls.Add(1)
	return nil, nil
}

// relayBatch hand-builds a one-instance routed frame that runs unit 0 of
// identityChain here and forwards the rest, for dispatch-level failover
// tests.
func relayBatch(rng *rand.Rand, id uint64) protocol.Frame {
	payload, err := protocol.EncodeRoutedActivation(0, []int{1}, tensor.Randn(rng, 1, 1, 3, 8, 8))
	if err != nil {
		panic(err)
	}
	return protocol.Frame{Type: protocol.MsgRelayRoute, ID: id, Payload: payload}
}

// TestRelaySlotReleasedOnDownstreamError pins the MaxInFlight accounting on
// the failure path: with a single relay slot and a dead downstream, every
// sequential relay must still be ANSWERED (with the downstream error), not
// parked behind a leaked slot. Before reading this as trivial, note the slot
// is taken in the read loop and released in a deferred recv on the dispatch
// goroutine — this test is what keeps that pairing honest.
func TestRelaySlotReleasedOnDownstreamError(t *testing.T) {
	down := &failingDown{}
	s, err := NewServer(nil, nil, WithStage(StageConfig{
		Chain:       identityChain,
		Downstreams: []Downstream{down},
		MaxInFlight: 1,
		// Keep the dead downstream in a permanent exclusion window so every
		// frame exercises the last-resort retry path too.
		FailureExclusion: time.Hour,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	client, err := edge.DialCloud(s.Addr().String(), edge.DialConfig{RequestTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(49))
	batch := tensor.Randn(rng, 1, 1, 3, 8, 8)
	for i := 0; i < 3; i++ {
		_, _, err := client.RelayRouted(batch, 0, []int{1})
		if err == nil || !strings.Contains(err.Error(), "downstream relay") {
			t.Fatalf("relay %d: want the downstream error surfaced promptly, got %v", i, err)
		}
	}
	if got := down.calls.Load(); got != 3 {
		t.Fatalf("dead downstream attempted %d times for 3 relays", got)
	}
}

// TestDownstreamShedPropagatesAsShed pins the chain shed contract end to end:
// a downstream refusal by admission control must come back upstream as
// MsgShed — errors.Is(_, ErrShed) with the RetryAfter hint preserved — never
// as a generic MsgError, or the edge would charge a failure (and burn a
// retry) for what is a zero-charge hold.
func TestDownstreamShedPropagatesAsShed(t *testing.T) {
	const hint = 40 * time.Millisecond
	down := &sheddingDown{retry: hint}
	s, err := NewServer(nil, nil, WithStage(StageConfig{Chain: identityChain, Downstreams: []Downstream{down}}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	client, err := edge.DialCloud(s.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(50))
	_, _, err = client.RelayRouted(tensor.Randn(rng, 1, 1, 3, 8, 8), 0, []int{1})
	if !errors.Is(err, edge.ErrShed) {
		t.Fatalf("downstream shed surfaced as a non-shed error: %v", err)
	}
	var se *edge.ShedError
	if !errors.As(err, &se) {
		t.Fatalf("shed error lost its type through the chain: %v", err)
	}
	if se.RetryAfter != hint {
		t.Fatalf("retry-after hint %v survived the hop as %v", hint, se.RetryAfter)
	}
}

// TestDownstreamFailoverOrderAndExclusion drives tryDownstreams through the
// PR 6 exclusion semantics applied hop-locally: a failed preferred entry is
// excluded and the alternate serves; while the window holds, the alternate is
// tried FIRST (the dead entry is not hammered); and when both downstreams
// shed, the hop answers MsgShed carrying the LARGEST hint.
func TestDownstreamFailoverOrderAndExclusion(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	bad, good := &failingDown{}, &okDown{}
	s, err := NewServer(nil, nil, WithStage(StageConfig{
		Chain:            identityChain,
		Downstreams:      []Downstream{bad, good},
		FailureExclusion: time.Hour, // window must outlive the test
	}))
	if err != nil {
		t.Fatal(err)
	}

	// First frame: the preferred entry fails, the alternate serves it.
	if resp := s.dispatch(relayBatch(rng, 1)); resp.Type != protocol.MsgResultBatch {
		t.Fatalf("failover frame answered with %s %q", resp.Type, resp.Payload)
	}
	if bad.calls.Load() != 1 || good.calls.Load() != 1 {
		t.Fatalf("first frame attempts: bad %d, good %d (want 1, 1)", bad.calls.Load(), good.calls.Load())
	}
	// While the exclusion window holds, the healthy entry is preferred and
	// the dead one is never re-attempted (it would only be retried as a last
	// resort if the healthy one also failed).
	for id := uint64(2); id <= 4; id++ {
		if resp := s.dispatch(relayBatch(rng, id)); resp.Type != protocol.MsgResultBatch {
			t.Fatalf("frame %d answered with %s %q", id, resp.Type, resp.Payload)
		}
	}
	if bad.calls.Load() != 1 || good.calls.Load() != 4 {
		t.Fatalf("excluded entry re-attempted: bad %d, good %d (want 1, 4)", bad.calls.Load(), good.calls.Load())
	}

	// All-shed hop: the refusal propagates as MsgShed with the largest hint,
	// and BOTH entries were offered the frame before the hop gave up.
	shedA, shedB := &sheddingDown{retry: 30 * time.Millisecond}, &sheddingDown{retry: 70 * time.Millisecond}
	s2, err := NewServer(nil, nil, WithStage(StageConfig{
		Chain:       identityChain,
		Downstreams: []Downstream{shedA, shedB},
	}))
	if err != nil {
		t.Fatal(err)
	}
	resp := s2.dispatch(relayBatch(rng, 5))
	if resp.Type != protocol.MsgShed {
		t.Fatalf("all-shed chain answered with %s %q, want MsgShed", resp.Type, resp.Payload)
	}
	retryAfter, _, _, err := protocol.DecodeShed(resp.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if retryAfter != 70*time.Millisecond {
		t.Fatalf("propagated hint %v, want the largest downstream hint 70ms", retryAfter)
	}
	if shedA.calls.Load() != 1 || shedB.calls.Load() != 1 {
		t.Fatalf("shed attempts: A %d, B %d (want 1, 1)", shedA.calls.Load(), shedB.calls.Load())
	}

	// Mixed shed + transport failure is NOT all-shed: the hop must report an
	// error (something is actually broken), not a hold.
	s3, err := NewServer(nil, nil, WithStage(StageConfig{
		Chain:       identityChain,
		Downstreams: []Downstream{&sheddingDown{retry: 10 * time.Millisecond}, &failingDown{}},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if resp := s3.dispatch(relayBatch(rng, 6)); resp.Type != protocol.MsgError {
		t.Fatalf("mixed shed+failure chain answered with %s, want MsgError", resp.Type)
	}
}

// TestNewServerStageOnly: a pure relay hop needs no models, but a server with
// neither models nor a stage is still rejected.
func TestNewServerStageOnly(t *testing.T) {
	if _, err := NewServer(nil, nil); err == nil {
		t.Fatal("model-less, stage-less server accepted")
	}
	if _, err := NewServer(nil, nil, WithStage(StageConfig{Chain: identityChain})); err != nil {
		t.Fatalf("stage-only server rejected: %v", err)
	}
}

// TestRelayProbeNeverShed: a saturated hop sheds routed activations but still
// answers chain probes — health checks must work when the hop is busiest.
func TestRelayProbeNeverShed(t *testing.T) {
	s, err := NewServer(nil, nil, WithStage(StageConfig{Chain: identityChain}), WithShedding(ShedPolicy{MaxInFlight: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	client := dialHop(t, s)
	s.inflight.Store(1) // saturated: every frame carrying work is shed

	rng := rand.New(rand.NewSource(52))
	if _, _, err := client.RelayRouted(tensor.Randn(rng, 1, 1, 3, 8, 8), 0, nil); !errors.Is(err, edge.ErrShed) {
		t.Fatalf("saturated hop answered a routed activation with %v, want a shed", err)
	}
	if hops, err := client.RelayProbe(0, nil); err != nil || len(hops) != 1 {
		t.Fatalf("saturated hop probe: %d hops, err %v (want 1, nil)", len(hops), err)
	}
}
