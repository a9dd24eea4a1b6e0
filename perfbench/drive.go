package main

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/linkest"
)

// clock is the time source of the load generators: real time in runs, a
// fake one in tests. Times are offsets from the start of the window.
type clock interface {
	now() time.Duration
	sleepUntil(d time.Duration)
}

type realClock struct{ start time.Time }

func (c realClock) now() time.Duration { return time.Since(c.start) }

func (c realClock) sleepUntil(d time.Duration) {
	if wait := d - c.now(); wait > 0 {
		time.Sleep(wait)
	}
}

// outcome is one request as the load generator saw it.
type outcome struct {
	due  time.Duration // when it was due: its scheduled time, or its send time in a closed loop
	sent time.Duration
	done time.Duration
	// lag is how late the generator woke up to send a request whose stream
	// was idle when it fell due; -1 when the stream was still busy with the
	// previous request (that wait is the system's, and counts in latency).
	lag time.Duration
	err error
}

func (o outcome) latency() time.Duration { return o.done - o.due }

// arrival is one scheduled open-loop request.
type arrival struct {
	due    time.Duration
	images []int // pool indices
}

// poissonSchedule draws a Poisson arrival process at rate per second over
// window, each arrival with batch uniformly drawn pool images.
func poissonSchedule(rng *rand.Rand, rate float64, window time.Duration, poolN, batch int) []arrival {
	var out []arrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= window {
			return out
		}
		out = append(out, arrival{due: due, images: drawImages(rng, poolN, batch)})
	}
}

// drawImages draws n pool indices uniformly, with replacement.
func drawImages(rng *rand.Rand, poolN, n int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = rng.Intn(poolN)
	}
	return idx
}

// openStream sends one stream's schedule: each request at its due time, or
// as soon as the previous one returns if that is later. Latency counts from
// the due time, so a stall also charges the requests queued behind it.
func openStream(clk clock, sched []arrival, call func(arrival) error) []outcome {
	out := make([]outcome, len(sched))
	for i, a := range sched {
		idle := clk.now() <= a.due
		if idle {
			clk.sleepUntil(a.due)
		}
		o := outcome{due: a.due, sent: clk.now(), lag: -1}
		if idle {
			o.lag = o.sent - a.due
		}
		o.err = call(a)
		o.done = clk.now()
		out[i] = o
	}
	return out
}

// closedLoop sends requests back to back until window has passed.
func closedLoop(clk clock, window time.Duration, call func() error) []outcome {
	var out []outcome
	for clk.now() < window {
		o := outcome{sent: clk.now(), lag: -1}
		o.due = o.sent
		o.err = call()
		o.done = clk.now()
		out = append(out, o)
	}
	return out
}

// workerSeed derives load goroutine w's generator seed for a phase of the
// run (warm-up or measurement) from the workload seed.
func workerSeed(seed int64, phase, w int) int64 {
	return seed*1_000_003 + int64(phase)*101 + int64(w)
}

const (
	phaseWarmUp = iota + 1
	phaseMeasure
)

// tally accumulates what the requests returned.
type tally struct {
	done atomic.Int64 // images whose call has returned, read by the sampler

	mu           sync.Mutex // guards everything below
	calls        int
	failedCalls  int
	images       int
	failedImages int // images in failed calls, plus CloudFailed and Shed instances
	correct      int // predictions equal to the label
	mismatches   int // decisions that differ from the reference
	firstDiff    string
}

// classify runs one request through load goroutine w's runtime, traced as
// a request span, and checks every decision against the reference.
func (s *system) classify(t *tracer, w int, idx []int, tl *tally) error {
	x, y := s.pool.Batch(idx)
	tok, traced := t.begin(true)
	ds, err := s.runtimes[w].Classify(x)
	if traced {
		t.end(tok, span{Name: spanClassify, Where: "edge", N: len(idx)})
	}
	tl.done.Add(int64(len(idx)))
	tl.mu.Lock()
	defer tl.mu.Unlock()
	tl.calls++
	tl.images += len(idx)
	if err == nil && len(ds) != len(idx) {
		err = fmt.Errorf("%d decisions for %d images", len(ds), len(idx))
	}
	if err != nil {
		tl.failedCalls++
		tl.failedImages += len(idx)
		return err
	}
	failed := 0
	for i, d := range ds {
		if d.CloudFailed || d.Shed {
			failed++
		}
		if d.Pred == y[i] {
			tl.correct++
		}
		if ref := s.ref[idx[i]]; d != ref {
			tl.mismatches++
			if tl.firstDiff == "" {
				tl.firstDiff = fmt.Sprintf("pool image %d: got %+v, reference %+v", idx[i], d, ref)
			}
		}
	}
	if failed > 0 {
		// The edge served these instances itself: the call failed its
		// purpose even though Classify returned.
		tl.failedCalls++
		tl.failedImages += failed
		return fmt.Errorf("%d of %d instances failed or were shed by the cloud", failed, len(ds))
	}
	return nil
}

// drive runs a workload's load generators for window and returns every
// load goroutine's outcomes.
func (s *system) drive(clk clock, w workloadDef, seed int64, phase int, window time.Duration, t *tracer, tl *tally) [][]outcome {
	outs := make([][]outcome, len(s.runtimes))
	var wg sync.WaitGroup
	for g := range s.runtimes {
		rng := rand.New(rand.NewSource(workerSeed(seed, phase, g)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			if w.Rate > 0 {
				sched := poissonSchedule(rng, w.Rate/float64(len(s.runtimes)), window, s.pool.N, w.Batch)
				outs[g] = openStream(clk, sched, func(a arrival) error {
					return s.classify(t, g, a.images, tl)
				})
				return
			}
			outs[g] = closedLoop(clk, window, func() error {
				return s.classify(t, g, drawImages(rng, s.pool.N, w.Batch), tl)
			})
		}()
	}
	wg.Wait()
	return outs
}

// warmUp drives the workload briefly so connections, estimators and the
// Go heap reach steady state before anything is measured.
func (s *system) warmUp(w workloadDef, seed int64) error {
	var tl tally
	s.drive(realClock{start: time.Now()}, w, seed, phaseWarmUp, warmUpWindow, nil, &tl)
	if tl.failedCalls > 0 || tl.failedImages > 0 || tl.mismatches > 0 {
		return fmt.Errorf("warm-up: %d failed calls, %d failed images, %d reference mismatches %s",
			tl.failedCalls, tl.failedImages, tl.mismatches, tl.firstDiff)
	}
	return nil
}

const warmUpWindow = time.Second

// snapshot is every counter the benchmark reads from the program at a point
// in time.
type snapshot struct {
	at       time.Time
	cpu      time.Duration
	sys      time.Duration // the kernel's part of cpu
	goStats  goSnapshot
	host     cpuStat
	hostOK   bool
	servers  []serverTotals
	edgeSent uint64
	hopSent  uint64 // chain hop 1 → hop 2 transport
	replicas []edge.ReplicaStats
	chain    edge.ChainStats
	conns    connTotals
}

// serverTotals are the cumulative cloud.Server counters the benchmark uses.
type serverTotals struct {
	requests, errors, bytesIn, sheds, served, relayed uint64
}

func (s *system) snapshot() snapshot {
	user, sys := cpuTimes()
	sn := snapshot{at: time.Now(), cpu: user + sys, sys: sys, goStats: readGo()}
	sn.host, sn.hostOK = readCPUStat()
	for _, srv := range s.servers {
		st := srv.Stats()
		sn.servers = append(sn.servers, serverTotals{st.Requests, st.Errors, st.BytesIn, st.Sheds, st.InstancesServed, st.Relayed})
	}
	for _, c := range s.edgeTCP {
		sn.edgeSent += c.BytesSent()
	}
	if s.hopDown != nil {
		sn.hopSent = s.hopDown.BytesSent()
	}
	if s.multi != nil {
		sn.replicas = s.multi.ReplicaStats()
	}
	if s.chain != nil {
		sn.chain = s.chain.ChainStats()
	}
	for _, c := range s.conns {
		sn.conns = sn.conns.add(c.snapshot())
	}
	return sn
}

// window is one measured stretch of a run.
type window struct {
	length       time.Duration // scheduled length; the last call may end later
	outcomes     []outcome
	tl           *tally
	elapsed      time.Duration
	before       snapshot
	after        snapshot
	samples      []sample    // every samplePeriod, on the drive clock
	report       edge.Report // summed over the distinct runtimes
	inflightMean float64
	estimates    []linkest.Estimate
	probe        []probeReading // the host-speed probe's, on the drive clock
}

// sample is one reading of the sampler goroutine.
type sample struct {
	at   time.Duration // on the drive clock
	cpu  time.Duration // process CPU so far
	done int64         // images whose call has returned
	heap float64       // heap objects plus unused heap, bytes
	// idleMark is the GC's mark work on otherwise idle processors so far,
	// in CPU seconds: spare CPU the Go runtime burns rather than leave
	// idle, and more of it the longer a cycle lasts.
	idleMark float64
}

const samplePeriod = 5 * time.Millisecond

// measure drives the workload for length with every counter snapshotted
// around it and a sampler reading CPU, heap and progress throughout.
func (s *system) measure(w workloadDef, seed int64, length time.Duration, t *tracer) *window {
	for _, rt := range s.distinctRuntimes() {
		rt.Reset()
	}
	win := &window{length: length, tl: &tally{}}
	clk := realClock{start: time.Now()}
	stop := make(chan struct{})
	sampled, probed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		win.samples, win.inflightMean = s.sample(clk, win.tl, stop)
	}()
	go func() {
		defer close(probed)
		win.probe = s.probe.run(clk, stop)
	}()
	win.before = s.snapshot()
	outs := s.drive(clk, w, seed, phaseMeasure, length, t, win.tl)
	win.after = s.snapshot()
	close(stop)
	<-sampled
	<-probed
	win.elapsed = win.after.at.Sub(win.before.at)
	for _, o := range outs {
		win.outcomes = append(win.outcomes, o...)
	}
	for _, rt := range s.distinctRuntimes() {
		win.report = addReports(win.report, rt.Report())
	}
	for _, c := range s.edgeTCP {
		win.estimates = append(win.estimates, c.LinkEstimate())
	}
	return win
}

// sample reads CPU, heap and progress every samplePeriod until stop
// closes, then once more; it also returns the servers' mean in-flight count.
func (s *system) sample(clk clock, tl *tally, stop <-chan struct{}) ([]sample, float64) {
	hs := newHeapSampler()
	tick := time.NewTicker(samplePeriod)
	defer tick.Stop()
	var out []sample
	var inflight float64
	read := func() sample {
		smp := sample{at: clk.now(), cpu: cpuTime(), done: tl.done.Load()}
		smp.heap, smp.idleMark = hs.read()
		return smp
	}
	for {
		out = append(out, read())
		for _, srv := range s.servers {
			inflight += float64(srv.Stats().InFlight)
		}
		select {
		case <-stop:
			out = append(out, read())
			return out, inflight / float64(len(out)-1)
		case <-tick.C:
		}
	}
}

// addReports sums two runtime reports (runtimes of one workload share the
// replica and chain snapshots, which are taken from the first).
func addReports(a, b edge.Report) edge.Report {
	if a.Exits == nil {
		a.Exits = make(map[core.ExitPoint]int)
		a.Replicas, a.Chain = b.Replicas, b.Chain
	}
	a.N += b.N
	for k, v := range b.Exits {
		a.Exits[k] += v
	}
	a.CloudFailures += b.CloudFailures
	a.BytesSent += b.BytesSent
	a.Energy = a.Energy.Add(b.Energy)
	a.RawUploads += b.RawUploads
	a.FeatureUploads += b.FeatureUploads
	a.ShedEvents += b.ShedEvents
	a.ShedFallbacks += b.ShedFallbacks
	a.RepFlips += b.RepFlips
	return a
}
