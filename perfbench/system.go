package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/deploy"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/energy"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/profile"
	"github.com/meanet/meanet/internal/tensor"
)

// phaseTimes are the set-up phases the setup.* metrics report, in wall
// time, and the process CPU time the whole set-up took, less the host-speed
// probe's.
type phaseTimes struct {
	data, main, edge, cloud, tail, serve time.Duration
	cpu                                  time.Duration
	probeMs                              float64 // the probe's unit time over set-up (see probeSpan)
}

// cpuScaled is the set-up CPU time at the reference host speed, in seconds.
func (p phaseTimes) cpuScaled() float64 {
	return p.cpu.Seconds() * probeRefMs / p.probeMs
}

func (p phaseTimes) total() time.Duration {
	return p.data + p.main + p.edge + p.cloud + p.tail + p.serve
}

// trained is what training produces from the system seed: identical for
// every workload seed.
type trained struct {
	synth    *data.Synth
	net      *core.MEANet
	lo, hi   float64 // validation entropy means of correct and wrong main-exit predictions
	rangeOK  bool
	cloudCNN *models.Classifier // the deep cloud AI (tiered-loopback)
	tail     *cloud.Tail        // the features tail (features-wan, chain3-open)
	phases   phaseTimes
}

// midpoint is the entropy threshold meanet-edge uses by default.
func (tr *trained) midpoint() float64 {
	if tr.rangeOK {
		return (tr.lo + tr.hi) / 2
	}
	return tr.lo
}

type trainNeeds struct{ edge, cloudCNN, tail bool }

// train builds the C100-B tiny deployment the way meanet-edge and
// meanet-cloud do, timing each phase.
func train(need trainNeeds) (*trained, error) {
	tr := &trained{}
	start := time.Now()
	synth, err := deploy.GeneratePreset("c100", data.ScaleTiny, systemSeed)
	if err != nil {
		return nil, err
	}
	tr.synth = synth
	tr.phases.data = time.Since(start)
	classes := synth.Train.NumClasses

	spec := deploy.EdgeSpec{Dataset: "c100", Scale: data.ScaleTiny, Seed: systemSeed, Variant: "B",
		Epochs: deploy.DefaultEpochs(data.ScaleTiny)}
	m, err := deploy.BuildEdgeNet(spec, classes)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	tm, err := deploy.TrainMain(spec, m, synth)
	if err != nil {
		return nil, err
	}
	if m.Dict, err = core.SelectHardClasses(tm.Confusion, classes/2); err != nil {
		return nil, err
	}
	tr.net = m
	tr.lo, tr.hi, tr.rangeOK = tm.Entropy.ThresholdRange()
	tr.phases.main = time.Since(start)

	if need.edge {
		start = time.Now()
		if err := core.TrainEdgeBlocks(m, tm.Train, core.DefaultTrainConfig(spec.Epochs, systemSeed+13)); err != nil {
			return nil, err
		}
		tr.phases.edge = time.Since(start)
	}
	if need.tail {
		start = time.Now()
		if tr.tail, err = deploy.TrainTail(m, tm.Train, systemSeed+900, cloudEpochsTiny, nil); err != nil {
			return nil, err
		}
		tr.phases.tail = time.Since(start)
	}
	if need.cloudCNN {
		start = time.Now()
		rng := rand.New(rand.NewSource(systemSeed + 500))
		backbone, err := models.BuildResNet(rng, models.ResNetCloud(3))
		if err != nil {
			return nil, err
		}
		cls := models.NewClassifier(rng, backbone, classes)
		if err := core.TrainClassifier(cls, synth.Train, core.DefaultTrainConfig(cloudEpochsTiny, systemSeed+501)); err != nil {
			return nil, err
		}
		tr.cloudCNN = cls
		tr.phases.cloud = time.Since(start)
	}
	return tr, nil
}

// cloudEpochsTiny is meanet-cloud's training length at tiny scale, for the
// deep cloud AI and the features tail alike.
const cloudEpochsTiny = 6

// system is one deployment serving a workload.
type system struct {
	tr   *trained
	pool *data.Dataset   // held-out images the workload seed draws from
	ref  []core.Decision // in-process reference decision per pool image
	// refModel and refTail serve the reference: the deployment's own
	// weights behind an edge.InProcClient.
	refModel, refTail edge.LogitModel
	cost              *edge.CostParams
	policy            core.Policy

	runtimes []*edge.Runtime // runtimes[w] serves load goroutine w
	edgeTCP  []*edge.TCPClient
	multi    *edge.MultiClient
	chain    *edge.ChainClient
	servers  []*cloud.Server // hop order for chains
	hopDown  *edge.TCPClient // chain hop 1 → hop 2 transport
	link     netsim.Link     // shaping of every edge connection (zero = loopback)
	conns    []*connCounters // traced edge and hop connections
	probe    *probe          // the host-speed probe
	closers  []func()        // run in reverse order by close
}

func (s *system) close() {
	for i := len(s.closers) - 1; i >= 0; i-- {
		s.closers[i]()
	}
}

// distinctRuntimes lists each runtime once.
func (s *system) distinctRuntimes() []*edge.Runtime {
	var out []*edge.Runtime
	seen := make(map[*edge.Runtime]bool)
	for _, rt := range s.runtimes {
		if !seen[rt] {
			seen[rt] = true
			out = append(out, rt)
		}
	}
	return out
}

// inShape is the CHW shape of one image.
func (tr *trained) inShape() profile.Shape {
	return profile.Shape{C: tr.synth.Train.C, H: tr.synth.Train.H, W: tr.synth.Train.W}
}

// costParams prices the edge the way meanet-edge does.
func costParams(m *core.MEANet, in profile.Shape) (*edge.CostParams, error) {
	prof, err := profile.ProfileMEANet(m, in, 0)
	if err != nil {
		return nil, err
	}
	feat, _ := m.MainForward(tensor.Randn(rand.New(rand.NewSource(1)), 1, 1, in.C, in.H, in.W), false)
	return &edge.CostParams{
		MainMACs:       prof.Fixed.MACs,
		ExtMACs:        prof.Trained.MACs,
		Compute:        energy.EdgeGPUCIFAR(),
		WiFi:           energy.DefaultWiFi(),
		ImageBytes:     energy.RawImageBytes(in.H, in.W, in.C),
		FeatureBytes:   energy.FeatureBytes(int64(feat.Numel())),
		WireImageBytes: 4 * int64(in.C) * int64(in.H) * int64(in.W),
	}, nil
}

// standUp trains and serves a workload's deployment, computes the
// reference decisions and warms the deployment up, with the host-speed
// probe running throughout. The trained phases plus serving and warm-up are
// the run's set-up time; the reference is not. t is nil for untraced runs.
func standUp(w workloadDef, seed int64, t *tracer) (*system, error) {
	probe, err := newProbe()
	if err != nil {
		return nil, err
	}
	clk := realClock{start: time.Now()}
	stop, probed := make(chan struct{}), make(chan []probeReading)
	go func() { probed <- probe.run(clk, stop) }()
	s, counted, err := setUp(w, seed, t)
	close(stop)
	readings := <-probed
	if err != nil {
		probe.free()
		return nil, err
	}
	s.probe = probe
	s.closers = append([]func(){probe.free}, s.closers...)
	ph := &s.tr.phases
	ph.probeMs, _ = probeSpan(readings, 0, clk.now())
	for _, iv := range counted {
		_, probeCPU := probeSpan(readings, iv[0].Sub(clk.start), iv[1].Sub(clk.start))
		ph.cpu -= time.Duration(probeCPU * float64(time.Millisecond))
	}
	return s, nil
}

// setUp does standUp's work. It returns the stretches of time whose process
// CPU it counted as set-up.
func setUp(w workloadDef, seed int64, t *tracer) (*system, [][2]time.Time, error) {
	start, cpu0 := time.Now(), cpuTime()
	tr, err := train(w.need)
	if err != nil {
		return nil, nil, err
	}
	trained := time.Now()
	s := &system{tr: tr, pool: tr.synth.Test, link: w.Link}
	if s.cost, err = costParams(tr.net, tr.inShape()); err != nil {
		return nil, nil, err
	}
	if err := w.serve(s, t); err != nil {
		s.close()
		return nil, nil, err
	}
	served, cpu1 := time.Now(), cpuTime()
	// The reference is the benchmark's own work, not set-up of the system.
	if err := s.reference(); err != nil {
		s.close()
		return nil, nil, err
	}
	warm, cpu2 := time.Now(), cpuTime()
	if err := s.warmUp(w, seed); err != nil {
		s.close()
		return nil, nil, err
	}
	end := time.Now()
	tr.phases.serve = served.Sub(trained) + end.Sub(warm)
	tr.phases.cpu = cpu1 - cpu0 + cpuTime() - cpu2
	return s, [][2]time.Time{{start, served}, {warm, end}}, nil
}

// listen starts a server on an ephemeral loopback port.
func (s *system) listen(raw cloud.Model, tail *cloud.Tail, opts ...cloud.Option) (*cloud.Server, error) {
	srv, err := cloud.NewServer(raw, tail, opts...)
	if err != nil {
		return nil, err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.closers = append(s.closers, func() { srv.Close() })
	s.servers = append(s.servers, srv)
	return srv, nil
}

// dial opens one client transport to srv over link; with a tracer the
// connection is wrapped above the link shaping.
func (s *system) dial(srv *cloud.Server, link netsim.Link, t *tracer, where string) (*edge.TCPClient, error) {
	raw, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		return nil, err
	}
	conn := netsim.Shape(raw, link)
	if t != nil {
		cc := &connCounters{}
		s.conns = append(s.conns, cc)
		conn = &tracedConn{Conn: conn, t: t, where: where, c: cc}
	}
	c := edge.NewClientOnConn(conn, edge.DialConfig{})
	s.closers = append(s.closers, func() { c.Close() })
	if err := c.Ping(); err != nil {
		return nil, fmt.Errorf("ping %s: %w", srv.Addr(), err)
	}
	return c, nil
}

// edgeNet returns the MEANet a runtime runs: the trained one, or with a
// tracer a shallow copy whose blocks hold traced units over the same
// weights.
func (s *system) edgeNet(t *tracer) (*core.MEANet, error) {
	if t == nil {
		return s.tr.net, nil
	}
	m := s.tr.net
	cp := *m
	in := s.tr.inShape()
	var err error
	var feat, ext profile.Shape
	if cp.Main, feat, err = tracedSeq(t, "main", m.Main, in); err != nil {
		return nil, err
	}
	if cp.MainExit, _, err = tracedSeq(t, "mainexit", m.MainExit, feat); err != nil {
		return nil, err
	}
	extIn := feat
	if m.Combine != core.CombineMainOnly {
		var ad profile.Shape
		if cp.Adaptive, ad, err = tracedSeq(t, "adaptive", m.Adaptive, in); err != nil {
			return nil, err
		}
		if m.Combine == core.CombineConcat {
			extIn.C += ad.C
		}
	}
	if cp.Extension, ext, err = tracedSeq(t, "extension", m.Extension, extIn); err != nil {
		return nil, err
	}
	if m.ExtExit != nil {
		if cp.ExtExit, _, err = tracedSeq(t, "extexit", m.ExtExit, ext); err != nil {
			return nil, err
		}
	}
	return &cp, nil
}

// tracedSeq flattens a block into units, prices them on the unwrapped
// chain (profile does not know the wrappers) and wraps each one.
func tracedSeq(t *tracer, where string, l nn.Layer, in profile.Shape) (*nn.Sequential, profile.Shape, error) {
	units := core.FlattenChain(l)
	macs, out, err := unitMACs(units, in)
	if err != nil {
		return nil, in, fmt.Errorf("price %s: %w", where, err)
	}
	return nn.NewSequential(where, wrapUnits(t, where, units, macs)...), out, nil
}

// unitMACs prices each unit per image and returns the chain's output shape.
func unitMACs(units []nn.Layer, in profile.Shape) ([]int64, profile.Shape, error) {
	costs, outs, err := profile.ChainCosts(units, in)
	if err != nil {
		return nil, in, err
	}
	macs := make([]int64, len(costs))
	for i, c := range costs {
		macs[i] = c.MACs
	}
	out := in
	if len(outs) > 0 {
		out = outs[len(outs)-1]
	}
	return macs, out, nil
}

// seqModel serves a flattened classifier as a cloud.Model.
type seqModel struct{ seq *nn.Sequential }

func (m seqModel) Logits(x *tensor.Tensor, train bool) *tensor.Tensor { return m.seq.Forward(x, train) }

// reference computes the in-process decision of every pool image: the same
// weights and policy behind an edge.InProcClient.
func (s *system) reference() error {
	client := &edge.InProcClient{Model: s.refModel, Tail: s.refTail}
	s.ref = make([]core.Decision, 0, s.pool.N)
	const batch = 16
	for lo := 0; lo < s.pool.N; lo += batch {
		idx := make([]int, 0, batch)
		for i := lo; i < min(lo+batch, s.pool.N); i++ {
			idx = append(idx, i)
		}
		x, _ := s.pool.Batch(idx)
		ds, err := s.tr.net.InferBatchedRep(x, s.policy, core.RepRaw, edge.BatchOffload(client))
		if err != nil {
			return err
		}
		s.ref = append(s.ref, ds...)
	}
	return nil
}

// serveTiered: one cloud.Server with the deep cloud AI; two runtimes, each
// on its own connection, offloading raw images.
func (s *system) serveTiered(t *tracer) error {
	tr := s.tr
	s.policy = core.Policy{Threshold: tr.midpoint(), UseCloud: true, CloudRetries: cloudRetries}
	s.refModel = tr.cloudCNN
	var model cloud.Model = tr.cloudCNN
	if t != nil {
		body, out, err := tracedSeq(t, "cloud", tr.cloudCNN.Backbone, tr.inShape())
		if err != nil {
			return err
		}
		exit, _, err := tracedSeq(t, "cloud", tr.cloudCNN.Exit, out)
		if err != nil {
			return err
		}
		model = &tracedModel{inner: seqModel{nn.NewSequential("cloud", body, exit)}, t: t, where: "cloud"}
	}
	srv, err := s.listen(model, nil)
	if err != nil {
		return err
	}
	for w := 0; w < 2; w++ {
		c, err := s.dial(srv, s.link, t, "edge")
		if err != nil {
			return err
		}
		s.edgeTCP = append(s.edgeTCP, c)
		m, err := s.edgeNet(t)
		if err != nil {
			return err
		}
		rt, err := edge.NewRuntime(m, s.policy, c, s.cost)
		if err != nil {
			return err
		}
		s.runtimes = append(s.runtimes, rt)
	}
	return nil
}

// serveFeaturesWAN: two replicas serving cloud.Partitioned(main, tail) plus
// the tail, behind an edge.MultiClient on shaped links; one auto-offload
// runtime shared by both load goroutines.
func (s *system) serveFeaturesWAN(t *tracer) error {
	tr := s.tr
	s.policy = core.Policy{Threshold: tr.lo, UseCloud: true, CloudRetries: cloudRetries}
	s.refModel, s.refTail = cloud.Partitioned(tr.net.Main, tr.tail), tr.tail
	var clients []edge.CloudClient
	var addrs []string
	for r := 0; r < 2; r++ {
		raw, tail, err := s.partitionedModels(t)
		if err != nil {
			return err
		}
		srv, err := s.listen(raw, tail)
		if err != nil {
			return err
		}
		c, err := s.dial(srv, s.link, t, "edge")
		if err != nil {
			return err
		}
		if _, err := c.Hello(); err != nil {
			return fmt.Errorf("hello %s: %w", srv.Addr(), err)
		}
		s.edgeTCP = append(s.edgeTCP, c)
		clients = append(clients, c)
		addrs = append(addrs, srv.Addr().String())
	}
	mc, err := edge.NewMultiClient(clients, addrs, edge.MultiConfig{})
	if err != nil {
		return err
	}
	s.multi = mc
	m, err := s.edgeNet(t)
	if err != nil {
		return err
	}
	rt, err := edge.NewRuntime(m, s.policy, mc, s.cost)
	if err != nil {
		return err
	}
	if err := rt.SetOffloadMode(edge.OffloadAuto); err != nil {
		return err
	}
	s.runtimes = []*edge.Runtime{rt, rt}
	return nil
}

// partitionedModels returns a replica's raw model and tail, traced when t
// is set.
func (s *system) partitionedModels(t *tracer) (cloud.Model, *cloud.Tail, error) {
	tr := s.tr
	if t == nil {
		return cloud.Partitioned(tr.net.Main, tr.tail), tr.tail, nil
	}
	main, feat, err := tracedSeq(t, "cloud", tr.net.Main, tr.inShape())
	if err != nil {
		return nil, nil, err
	}
	body, bodyOut, err := tracedSeq(t, "cloud", tr.tail.Body, feat)
	if err != nil {
		return nil, nil, err
	}
	exit, _, err := tracedSeq(t, "cloud", tr.tail.Exit, bodyOut)
	if err != nil {
		return nil, nil, err
	}
	raw := &tracedModel{inner: cloud.Partitioned(main, &cloud.Tail{Body: body, Exit: exit}), t: t, where: "cloud"}
	tail := &cloud.Tail{Body: &modelLayer{inner: body, t: t, where: "cloud"}, Exit: &modelLayer{inner: exit, t: t, where: "cloud"}}
	return raw, tail, nil
}

// serveChain: a routed 3-hop chain (edge stage 0, hop 1, terminal hop 2)
// cut at MainBoundary/2 and MainBoundary, replan off; one runtime at
// threshold 0 shared by both streams.
func (s *system) serveChain(t *tracer) error {
	tr := s.tr
	s.policy = core.Policy{Threshold: 0, UseCloud: true, CloudRetries: cloudRetries}
	s.refModel = cloud.Partitioned(tr.net.Main, tr.tail)
	chain := deploy.ServingChain(tr.net, tr.tail)
	mb := deploy.MainBoundary(tr.net)
	cuts := []core.CutPoint{mb / 2, mb}
	macs, _, err := unitMACs(chain, tr.inShape())
	if err != nil {
		return err
	}
	hopChain := func(where string) []nn.Layer {
		if t == nil {
			return chain
		}
		return wrapUnits(t, where, chain, macs)
	}
	hop2, err := s.listen(nil, nil, cloud.WithStage(cloud.StageConfig{Chain: hopChain("hop2")}))
	if err != nil {
		return err
	}
	if s.hopDown, err = s.dial(hop2, netsim.Link{}, t, "hop1"); err != nil {
		return err
	}
	hop1, err := s.listen(nil, nil, cloud.WithStage(cloud.StageConfig{
		Chain: hopChain("hop1"), Downstreams: []cloud.Downstream{s.hopDown}}))
	if err != nil {
		return err
	}
	next, err := s.dial(hop1, s.link, t, "edge")
	if err != nil {
		return err
	}
	s.edgeTCP = []*edge.TCPClient{next}
	cc, err := edge.NewRoutedChainClient(next, edge.ChainConfig{Chain: hopChain("stage0"), Cuts: cuts, MaxLocal: int(mb)})
	if err != nil {
		return err
	}
	if hops, err := cc.ProbeChain(); err != nil {
		return err
	} else if hops != 2 {
		return fmt.Errorf("chain probe saw %d cloud hops, want 2", hops)
	}
	s.chain = cc
	s.servers = []*cloud.Server{hop1, hop2} // hop order
	m, err := s.edgeNet(t)
	if err != nil {
		return err
	}
	rt, err := edge.NewRuntime(m, s.policy, cc, s.cost)
	if err != nil {
		return err
	}
	s.runtimes = []*edge.Runtime{rt, rt}
	return nil
}
