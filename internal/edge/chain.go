package edge

// ChainClient drives a multi-hop partitioned deployment (core.Partition)
// from the edge: it runs stage 0 of the serving chain locally — or ships the
// raw input when the placement assigns the edge no compute (cuts[0] == 0) —
// and relays the activations to the first stage server, which forwards hop by
// hop until the terminal hop's results come back along the chain. It
// implements CloudClient, so the edge runtime, the fleet harness and
// BatchOffload consume a chain exactly like a single cloud server.
//
// Every chain is source-routed: every hop holds the full serving chain and
// each frame carries its own cut chain (MsgRelayRoute). A fixed chain is just
// one whose cuts never move. The client may MOVE the cuts mid-run — new
// frames ship the new route while in-flight frames complete on the old one
// (drain-never-abort, the PR 8 template), with bitwise-identical predictions
// either way because core.Partition is exact for every legal cut chain. With
// Replan enabled the client re-solves placement periodically from MEASURED
// conditions: the transport's linkest estimate for the first hop, and the
// per-hop service-time/link telemetry piggybacked on every relay reply.
//
// Degraded mode: when the chain fails mid-hop — transport death, a dead hop,
// a shed storm — the client falls back to DIRECT offload of the original raw
// batch through an optional direct replica, with exact per-path accounting in
// ChainStats. After a chain failure the client keeps sending batches straight
// to the direct replica for chainRetryWindow before it tries the chain again,
// so a known-broken chain does not cost every batch a local stage, the
// upstream hops' stages and a failed round trip. Without a direct replica the
// error (or shed) surfaces to the caller, whose own fallback is the all-edge
// path (the runtime counts it as a CloudFailure and serves locally). Edge
// throughput therefore degrades to the direct-offload (or all-edge)
// baseline, never to zero.

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/linkest"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/profile"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// chainRetryWindow is how long a chain that failed (in transport or on a
// hop; sheds do not count) is bypassed for the direct replica before the next
// batch tries it again.
const chainRetryWindow = 250 * time.Millisecond

// Replan defaults.
const (
	defaultReplanInterval   = 500 * time.Millisecond
	defaultReplanHysteresis = 0.15
	defaultReplanMinSamples = 3
)

// Local stage service-time EWMA (the same queue-normalized shape as the
// replica capacity weights and the cloud hops' piggybacked estimate).
const (
	localServiceAlpha      = 0.3
	minLocalServiceSamples = 3
)

// ChainStats is the per-path accounting a chain client keeps for
// Report.Chain: which instances went through the chain, which took the
// direct-offload fallback, and how the live re-solver moved the cuts.
type ChainStats struct {
	// ChainCalls/ChainInstances count relay round trips that succeeded
	// end-to-end and the instances they classified.
	ChainCalls     uint64
	ChainInstances uint64
	// FallbackCalls/FallbackInstances count batches served by the direct
	// replica after the chain failed or shed, or while a failed chain waits
	// out its retry window. Chain + fallback + the caller's own edge
	// fallback partition the total exactly.
	FallbackCalls     uint64
	FallbackInstances uint64
	// ChainFailures counts relay round trips that failed in transport or on
	// a hop (sheds are not failures: they are refusals, accounted by Sheds).
	ChainFailures uint64
	// DirectFailures counts fallback attempts that ALSO failed — the batch
	// then surfaces an error and the caller serves it at the edge.
	DirectFailures uint64
	// CutMoves counts live re-placements that changed the cut chain.
	CutMoves uint64
	// Cuts is the current cut chain.
	Cuts []core.CutPoint
	// Hops is the cloud hop count most recently observed on a relay reply.
	Hops int
}

// ReplanConfig enables live re-placement on a routed chain client.
type ReplanConfig struct {
	// Enabled turns the periodic re-solve on.
	Enabled bool
	// Interval is the minimum time between re-solves (default 500ms).
	Interval time.Duration
	// Hysteresis is the fractional modeled-throughput improvement a solved
	// placement must show over the CURRENT cuts before the client moves them
	// (default 0.15). The margin is what keeps measurement noise from
	// flapping the cuts back and forth.
	Hysteresis float64
	// MinSamples is how many successful relay round trips (and local stage
	// forwards) must accumulate before the first re-solve, and again after
	// every move (default 3) — matching the cloud hops' own sample gate.
	MinSamples int
	// In is the CHW shape of one input instance, needed to price the chain.
	In profile.Shape
	// EdgeMACsPerSec is the edge device's compute-rate prior, used until the
	// local stage has enough measured samples (and again right after a move
	// resets them). 0 = wait for measurements instead.
	EdgeMACsPerSec float64
}

func (r *ReplanConfig) fillDefaults() {
	if r.Interval <= 0 {
		r.Interval = defaultReplanInterval
	}
	if r.Hysteresis <= 0 {
		r.Hysteresis = defaultReplanHysteresis
	}
	if r.MinSamples <= 0 {
		r.MinSamples = defaultReplanMinSamples
	}
}

// ChainConfig configures a routed chain client.
type ChainConfig struct {
	// Chain is the full serving chain at unit granularity
	// (core.FlattenChain) — the SAME chain every hop was configured with.
	Chain []nn.Layer
	// Cuts is the initial cut chain: cuts[0] units run on the edge (0 = ship
	// the raw input), each later boundary starts the next hop's span.
	// Strictly increasing, len(cuts) = number of cloud hops.
	Cuts []core.CutPoint
	// MaxLocal caps how many chain units a re-solve may assign to the edge
	// (default len(Chain)-1: every placement must leave the cloud hops at
	// least one unit each anyway). The cap is what keeps the solver from
	// parking the whole chain on a battery-powered device just because the
	// uplink dipped.
	MaxLocal int
	// Direct, when non-nil, is the degraded-mode fallback: a client to a
	// replica that serves whole raw batches (typically a *TCPClient to a
	// monolithic server). The ORIGINAL raw batch ships there when the chain
	// fails.
	Direct CloudClient
	// Replan enables live re-placement.
	Replan ReplanConfig
}

// ChainClient is the edge endpoint of a stage chain.
type ChainClient struct {
	next *TCPClient // transport to the first stage server

	// chain, costs, maxLocal and replan are fixed at construction.
	chain    []nn.Layer
	costs    []profile.Cost // per-unit costs (profile.ChainCosts at build)
	maxLocal int
	replan   ReplanConfig

	mu sync.Mutex // guards cuts, local, direct, retryAt, stats, localSvcEWMA, localSvcSamples, hopStats, hopSamples, lastReplan
	// cuts is the CURRENT route (replaced wholesale on a move — snapshots
	// taken under mu stay valid for the frames already carrying them, which
	// is the whole drain-never-abort trick).
	cuts  []core.CutPoint
	local nn.Layer // current stage 0; nil = ship the raw input (cuts[0] == 0)
	// direct is the degraded-mode fallback replica (nil = none).
	direct CloudClient
	// retryAt ends the current chain retry window: until then, batches go
	// straight to direct (when armed).
	retryAt time.Time
	stats   ChainStats
	// localSvcEWMA tracks the measured per-instance local stage time,
	// normalized by concurrent classify calls (localActive), feeding the
	// edge-device rate of a re-solve.
	localSvcEWMA    float64
	localSvcSamples int
	// hopStats is the latest per-hop telemetry vector piggybacked on a relay
	// reply; hopSamples counts replies since the last move.
	hopStats   []protocol.StageStatus
	hopSamples int
	lastReplan time.Time

	localActive atomic.Int64 // classify calls running the local stage right now
}

// ChainReporter surfaces per-path chain accounting. *ChainClient implements
// it; the runtime duck-types against it in Report like ReplicaReporter.
type ChainReporter interface {
	ChainStats() ChainStats
}

var (
	_ CloudClient   = (*ChainClient)(nil)
	_ ChainReporter = (*ChainClient)(nil)
)

// NewRoutedChainClient wraps a dialed transport to the first hop of a
// source-routed chain (every hop configured with the same full Chain).
func NewRoutedChainClient(next *TCPClient, cfg ChainConfig) (*ChainClient, error) {
	if next == nil {
		return nil, errors.New("edge: chain client needs a transport to the first hop")
	}
	if len(cfg.Chain) == 0 {
		return nil, errors.New("edge: routed chain client needs the serving chain")
	}
	if len(cfg.Cuts) == 0 {
		return nil, errors.New("edge: routed chain client needs at least one cut (one cloud hop)")
	}
	local, err := localStage(cfg.Chain, cfg.Cuts)
	if err != nil {
		return nil, fmt.Errorf("edge: routed chain: %w", err)
	}
	if cfg.MaxLocal <= 0 || cfg.MaxLocal > len(cfg.Chain)-1 {
		cfg.MaxLocal = len(cfg.Chain) - 1
	}
	if int(cfg.Cuts[0]) > cfg.MaxLocal {
		return nil, fmt.Errorf("edge: initial cut %d exceeds MaxLocal %d", cfg.Cuts[0], cfg.MaxLocal)
	}
	cfg.Replan.fillDefaults()
	c := &ChainClient{
		next:     next,
		chain:    cfg.Chain,
		maxLocal: cfg.MaxLocal,
		replan:   cfg.Replan,
		cuts:     append([]core.CutPoint(nil), cfg.Cuts...),
		local:    local,
		direct:   cfg.Direct,
	}
	if cfg.Replan.Enabled {
		// Price the chain up front: an unpriceable unit must fail the build,
		// not the first mid-run re-solve.
		costs, _, err := profile.ChainCosts(cfg.Chain, cfg.Replan.In)
		if err != nil {
			return nil, fmt.Errorf("edge: routed chain: %w", err)
		}
		c.costs = costs
	}
	return c, nil
}

// localStage validates a cut chain and returns the edge's stage 0 over
// chain[:cuts[0]] — nil when cuts[0] == 0, the placement that ships the raw
// input (core.Partition itself only accepts cuts past position 0).
func localStage(chain []nn.Layer, cuts []core.CutPoint) (nn.Layer, error) {
	if cuts[0] == 0 {
		_, err := core.Partition(chain, cuts[1:])
		return nil, err
	}
	stages, err := core.Partition(chain, cuts)
	if err != nil {
		return nil, err
	}
	return stages[0], nil
}

// SetDirect arms (or swaps) the degraded-mode direct-offload fallback.
func (c *ChainClient) SetDirect(d CloudClient) {
	c.mu.Lock()
	c.direct = d
	c.mu.Unlock()
}

// ChainStats snapshots the per-path accounting.
func (c *ChainClient) ChainStats() ChainStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Cuts = append([]core.CutPoint(nil), c.cuts...)
	st.Hops = len(c.hopStats)
	return st
}

// Classify runs one CHW image through the chain (a 1-image batch, so single
// and batched predictions agree bitwise).
func (c *ChainClient) Classify(img *tensor.Tensor) (int, float64, error) {
	if img.Dims() != 3 {
		return 0, 0, fmt.Errorf("edge: Classify expects a CHW image, got shape %v", img.Shape())
	}
	preds, confs, err := c.classifyStacked(img.Reshape(append([]int{1}, img.Shape()...)...))
	if err != nil {
		return 0, 0, err
	}
	return preds[0], confs[0], nil
}

// ClassifyBatch stacks the images and runs the chain once over the whole
// batch: one local stage-0 forward, one relay frame per hop.
func (c *ChainClient) ClassifyBatch(imgs []*tensor.Tensor) ([]int, []float64, error) {
	batch, err := stackCHW(imgs, "ClassifyBatch")
	if err != nil {
		return nil, nil, err
	}
	return c.classifyStacked(batch)
}

// classifyStacked is the BatchOffload fast path: run the local stage (if
// any) on the already-stacked NCHW batch, relay the activations, and on a
// chain failure fall back to direct offload of the ORIGINAL batch.
func (c *ChainClient) classifyStacked(batch *tensor.Tensor) ([]int, []float64, error) {
	if batch.Dims() != 4 {
		return nil, nil, fmt.Errorf("edge: classifyStacked expects an NCHW batch, got shape %v", batch.Shape())
	}
	n := batch.Dim(0)

	// Snapshot the route under the lock; the snapshot stays coherent for
	// this frame even if a re-solve moves the cuts while it is in flight.
	c.mu.Lock()
	local := c.local
	cuts := c.cuts
	direct := c.direct
	bypass := direct != nil && time.Now().Before(c.retryAt)
	c.mu.Unlock()
	if bypass {
		return c.classifyDirect(direct, batch, nil)
	}

	act := batch
	if local != nil {
		active := c.localActive.Add(1)
		start := time.Now()
		act = local.Forward(batch, false)
		dur := time.Since(start)
		c.localActive.Add(-1)
		c.noteLocalService(dur, n, active)
	}

	rs, hops, err := c.next.RelayRouted(act, int(cuts[0]), routeBounds(cuts))
	if err == nil {
		c.mu.Lock()
		c.stats.ChainCalls++
		c.stats.ChainInstances += uint64(n)
		if len(hops) > 0 {
			c.hopStats = hops
		}
		c.hopSamples++
		c.mu.Unlock()
		c.maybeReplan()
		preds := make([]int, len(rs))
		confs := make([]float64, len(rs))
		for i, r := range rs {
			preds[i] = int(r.Pred)
			confs[i] = float64(r.Conf)
		}
		return preds, confs, nil
	}

	// Degraded mode. A shed is a refusal, not a failure — but either way the
	// chain is not serving this batch, so try the direct replica if one is
	// armed; the caller's own all-edge fallback handles the rest.
	if !errors.Is(err, ErrShed) {
		c.mu.Lock()
		c.stats.ChainFailures++
		// Windows extend, never shorten: concurrent failures only push the
		// next chain attempt out.
		if at := time.Now().Add(chainRetryWindow); at.After(c.retryAt) {
			c.retryAt = at
		}
		c.mu.Unlock()
	}
	if direct == nil {
		return nil, nil, err
	}
	return c.classifyDirect(direct, batch, err)
}

// classifyDirect serves a batch through the degraded-mode direct replica.
// chainErr is the chain failure that sent it here (nil while the chain waits
// out its retry window).
func (c *ChainClient) classifyDirect(direct CloudClient, batch *tensor.Tensor, chainErr error) ([]int, []float64, error) {
	preds, confs, derr := directClassify(direct, batch)
	if derr != nil {
		c.mu.Lock()
		c.stats.DirectFailures++
		c.mu.Unlock()
		if errors.Is(derr, ErrShed) {
			// Both paths refused by admission control: surface the shed so
			// the caller takes its zero-charge hold instead of charging a
			// failure.
			return nil, nil, derr
		}
		if chainErr == nil {
			return nil, nil, fmt.Errorf("edge: chain in retry window; direct fallback: %w", derr)
		}
		return nil, nil, fmt.Errorf("edge: chain failed (%v); direct fallback: %w", chainErr, derr)
	}
	c.mu.Lock()
	c.stats.FallbackCalls++
	c.stats.FallbackInstances += uint64(batch.Dim(0))
	c.mu.Unlock()
	return preds, confs, nil
}

// routeBounds converts the boundaries after the edge's cut into the route a
// relay frame carries.
func routeBounds(cuts []core.CutPoint) []int {
	bounds := make([]int, len(cuts)-1)
	for i, b := range cuts[1:] {
		bounds[i] = int(b)
	}
	return bounds
}

// directClassify ships a stacked batch through the fallback replica, using
// its zero-copy stacked path when the transport has one.
func directClassify(d CloudClient, batch *tensor.Tensor) ([]int, []float64, error) {
	if sc, ok := d.(stackedBatchClient); ok {
		return sc.classifyStacked(batch)
	}
	imgs := make([]*tensor.Tensor, batch.Dim(0))
	for i := range imgs {
		imgs[i] = batch.Sample(i)
	}
	return d.ClassifyBatch(imgs)
}

// noteLocalService folds one local stage forward into the EWMA feeding the
// edge-device compute rate of a re-solve (per-instance wall time, normalized
// by the classify calls running the local stage concurrently).
func (c *ChainClient) noteLocalService(dur time.Duration, instances int, active int64) {
	if instances <= 0 || dur <= 0 {
		return
	}
	sample := dur.Seconds() / float64(instances)
	if active > 1 {
		sample /= float64(active)
	}
	c.mu.Lock()
	if c.localSvcSamples == 0 {
		c.localSvcEWMA = sample
	} else {
		c.localSvcEWMA = localServiceAlpha*sample + (1-localServiceAlpha)*c.localSvcEWMA
	}
	c.localSvcSamples++
	c.mu.Unlock()
}

// spanMACs sums the priced MACs of chain units [from, to).
func (c *ChainClient) spanMACs(from, to int) float64 {
	var macs int64
	for _, cost := range c.costs[from:to] {
		macs += cost.MACs
	}
	return float64(macs)
}

// maybeReplan re-solves the placement from measured conditions and moves the
// cuts when the solved chain beats the current one by the hysteresis margin.
// Rate-limited by Interval; skipped entirely until the telemetry is mature.
// The solve itself runs outside the lock (it enumerates C(L-1,N-1) cut
// chains); only the snapshot and the swap hold it.
func (c *ChainClient) maybeReplan() {
	if !c.replan.Enabled {
		return
	}
	now := time.Now()
	c.mu.Lock()
	if now.Sub(c.lastReplan) < c.replan.Interval ||
		c.hopSamples < c.replan.MinSamples || len(c.hopStats) == 0 {
		c.mu.Unlock()
		return
	}
	c.lastReplan = now
	curCuts := c.cuts
	hops := append([]protocol.StageStatus(nil), c.hopStats...)
	localSvc, localSamples := c.localSvcEWMA, c.localSvcSamples
	c.mu.Unlock()

	if len(hops) != len(curCuts) {
		return // telemetry doesn't match the route yet (mid-move reply)
	}

	// Device 0: the edge. Prefer the measured local-stage rate; fall back to
	// the configured prior until it matures.
	devices := make([]profile.Device, 0, len(hops)+1)
	edgeRate := c.replan.EdgeMACsPerSec
	if localSamples >= minLocalServiceSamples && localSvc > 0 && curCuts[0] > 0 {
		edgeRate = c.spanMACs(0, int(curCuts[0])) / localSvc
	}
	if edgeRate <= 0 {
		return
	}
	devices = append(devices, profile.Device{Name: "edge", MACsPerSec: edgeRate})

	// Cloud hops: rate = the MACs of the span each hop CURRENTLY runs over
	// its piggybacked queue-normalized service time.
	bounds := make([]int, 0, len(curCuts)+1)
	for _, ct := range curCuts {
		bounds = append(bounds, int(ct))
	}
	bounds = append(bounds, len(c.chain))
	for i, h := range hops {
		if h.ServiceNanos == 0 {
			return // hop estimate not mature yet
		}
		rate := c.spanMACs(bounds[i], bounds[i+1]) / (float64(h.ServiceNanos) / 1e9)
		devices = append(devices, profile.Device{Name: fmt.Sprintf("hop%d", i+1), MACsPerSec: rate})
	}

	// Links: the edge's own transport estimate for link 0, each hop's
	// piggybacked downstream estimate for the rest (the terminal hop's
	// entry carries no link and is not a link).
	links := make([]netsim.Link, 0, len(hops))
	est := c.next.LinkEstimate()
	if est.Mbps <= 0 {
		return // uplink estimate not mature yet
	}
	links = append(links, netsim.Link{Latency: est.RTT / 2, Mbps: est.Mbps})
	for i := 0; i < len(hops)-1; i++ {
		if hops[i].DownMbps <= 0 {
			return
		}
		links = append(links, netsim.Link{
			Latency: time.Duration(hops[i].DownRTTNanos) / 2,
			Mbps:    float64(hops[i].DownMbps),
		})
	}

	solved, err := profile.PlacePipeline(c.chain, c.replan.In, devices, links)
	if err != nil || int(solved.Cuts[0]) > c.maxLocal {
		return
	}
	if cutsEqual(solved.Cuts, curCuts) {
		return
	}
	current, err := profile.EvaluateCuts(c.chain, c.replan.In, devices, links, curCuts)
	if err != nil || solved.Throughput <= current.Throughput*(1+c.replan.Hysteresis) {
		return
	}

	local, err := localStage(c.chain, solved.Cuts)
	if err != nil {
		return
	}
	c.mu.Lock()
	if !cutsEqual(c.cuts, curCuts) {
		// Another call moved the cuts while we solved; its telemetry reset
		// stands. (Single writer in practice — replans are interval-gated —
		// but the check costs nothing.)
		c.mu.Unlock()
		return
	}
	c.cuts = append([]core.CutPoint(nil), solved.Cuts...)
	c.local = local
	c.stats.CutMoves++
	// The accumulated estimates priced the OLD spans; start fresh so the
	// next re-solve runs on telemetry for the new ones.
	c.localSvcEWMA, c.localSvcSamples = 0, 0
	c.hopStats, c.hopSamples = nil, 0
	c.mu.Unlock()
}

func cutsEqual(a, b []core.CutPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// ProbeChain traverses the chain end to end with a zero-instance relay
// probe along the current route: no stage runs, every transport leg is
// exercised, and the healthy hop count comes back from the piggybacked
// status vector. On failure the returned hop is the 1-based index of the hop
// whose downstream leg broke (hop 1 = the first stage server): each
// forwarding hop wraps the failure in one "downstream relay:" layer, so the
// depth of the wrapping locates it.
func (c *ChainClient) ProbeChain() (hop int, err error) {
	c.mu.Lock()
	cuts := c.cuts
	c.mu.Unlock()
	hops, err := c.next.RelayProbe(int(cuts[0]), routeBounds(cuts))
	if err != nil {
		failing := strings.Count(err.Error(), "downstream relay:") + 1
		return failing, fmt.Errorf("edge: chain probe failed at hop %d: %w", failing, err)
	}
	return len(hops), nil
}

// Ping verifies the WHOLE chain, not just the first hop: a chain with a dead
// mid-hop must report unhealthy even though hop 1 answers. Implemented as a
// ProbeChain traversal; the failing hop is named in the error.
func (c *ChainClient) Ping() error {
	_, err := c.ProbeChain()
	return err
}

// LinkEstimate reports the live estimate of the edge→first-hop link (each
// further hop's downstream transport keeps its own).
func (c *ChainClient) LinkEstimate() linkest.Estimate { return c.next.LinkEstimate() }

// CloudLoad reports the first hop's piggybacked backpressure signal.
func (c *ChainClient) CloudLoad() (protocol.LoadStatus, bool) { return c.next.CloudLoad() }

// Sheds reports how many relay frames the first hop answered with a shed.
func (c *ChainClient) Sheds() uint64 { return c.next.Sheds() }

// BytesSent reports the wire bytes shipped to the first hop.
func (c *ChainClient) BytesSent() uint64 { return c.next.BytesSent() }

// Close releases the transport to the first hop (the direct fallback client,
// if any, belongs to the caller).
func (c *ChainClient) Close() error { return c.next.Close() }
