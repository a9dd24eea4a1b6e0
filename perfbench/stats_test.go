package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct {
		p      float64
		value  float64
		beyond int
	}{
		{50, 50, 50},
		{90, 90, 10},
		{99, 99, 1},
		{100, 100, 0},
		{0.5, 1, 99},
	} {
		v, b := percentile(samples, c.p)
		if v != c.value || b != c.beyond {
			t.Errorf("p%g = %g with %d beyond, want %g with %d", c.p, v, b, c.value, c.beyond)
		}
	}
	if samples[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if v, b := percentile(nil, 50); v != 0 || b != 0 {
		t.Errorf("empty percentile = %g, %d", v, b)
	}
	// p99 of 1000 samples leaves exactly 10 beyond: the smallest run the
	// benchmark reports a p99 for.
	if _, b := percentile(make([]float64, 1000), 99); b != 10 {
		t.Errorf("p99 of 1000 samples leaves %d beyond, want 10", b)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median %g", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %g", m)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100},
		{ID: 2, Parent: 1, Start: 10, End: 30},
		{ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps span 2: counted once
		{ID: 4, Parent: 1, Start: 60, End: 70},
		{ID: 5, Parent: 1, Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 6, Parent: 4, Start: 62, End: 65},  // grandchild: only its parent's time
	}
	self := selfTimes(spans)
	want := map[int64]int64{1: 100 - 40 - 10 - 10, 2: 20, 3: 30, 4: 10 - 3, 5: 30, 6: 3}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time %d, want %d", id, self[id], w)
		}
	}
}

func TestTracerParentsByGoroutine(t *testing.T) {
	tr := newTracer()
	tr.on.Store(true)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				req, _ := tr.begin(true)
				unit, _ := tr.begin(false)
				tr.end(unit, span{Name: spanUnit})
				write, _ := tr.begin(false)
				tr.end(write, span{Name: spanWrite})
				tr.end(req, span{Name: spanClassify})
			}
		}()
	}
	wg.Wait()
	spans := tr.take()
	if len(spans) != 4*50*3 {
		t.Fatalf("%d spans, want %d", len(spans), 4*50*3)
	}
	byID := make(map[int64]span)
	for _, s := range spans {
		byID[s.ID] = s
	}
	for _, s := range spans {
		switch s.Name {
		case spanClassify:
			if s.Parent != 0 || s.Req != s.ID {
				t.Fatalf("request span %+v: want no parent and its own request id", s)
			}
		default:
			p, ok := byID[s.Parent]
			if !ok || p.Name != spanClassify || s.Req != p.ID || s.Start < p.Start || s.End > p.End {
				t.Fatalf("child span %+v not inside its request %+v", s, p)
			}
		}
	}
	if len(tr.stacks) != 0 {
		t.Errorf("%d goroutines still hold open spans", len(tr.stacks))
	}
	tr.on.Store(false)
	if _, ok := tr.begin(false); ok {
		t.Error("a stopped tracer began a span")
	}
}

func TestParseCPUStat(t *testing.T) {
	a, ok := parseCPUStat("cpu  100 0 50 800 10 0 5 35 7 0")
	if !ok || a.total != 1000 || a.steal != 35 {
		t.Fatalf("parsed %+v, %v", a, ok)
	}
	b, _ := parseCPUStat("cpu  150 0 60 880 10 0 5 95 9 0")
	if s := stealShare(a, b); math.Abs(s-0.3) > 1e-12 {
		t.Errorf("steal share %g, want 0.3", s)
	}
	if _, ok := parseCPUStat("cpu0 1 2 3"); ok {
		t.Error("parsed a per-CPU line as the aggregate")
	}
}

// Metric names and units must fit the benchmark file format, and
// BENCHMARK.json must list exactly the metrics the program prints.
func TestMetricDefinitions(t *testing.T) {
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(endToEnd) < 1 || len(endToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(endToEnd))
	}
	if len(perLayer) < 1 || len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(perLayer))
	}
	if len(workloads) < 2 || len(workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(workloads))
	}
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			t.Errorf("metric %s: better %q", d.Name, d.Better)
		}
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(file.Workloads), len(workloads))
	}
	for i, w := range file.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("BENCHMARK.json workload %d is %+v, the program's %s", i, w, workloads[i].Name)
		}
	}
	if len(file.EndToEnd) != len(endToEnd) || len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the program %d+%d",
			len(file.EndToEnd), len(file.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range file.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("BENCHMARK.json end-to-end metric %d is %+v, the program's %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
	}
	for i, m := range file.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("BENCHMARK.json per-layer metric %d is %+v, the program's %+v", i, m, d)
		}
	}
}

func TestPartsScaleCPUByProbe(t *testing.T) {
	sec := func(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }
	win := &window{length: sec(3)}
	// Each part: 100 images, 1000 ms of process CPU, 40 ms of it idle GC
	// marking.
	for k := 0; k <= 3; k++ {
		win.samples = append(win.samples, sample{
			at: sec(float64(k)), cpu: time.Duration(k) * time.Second,
			done: int64(100 * k), idleMark: 0.04 * float64(k),
		})
	}
	// The probe runs at the reference speed in part 1 and half as fast in
	// part 2; in part 3 one slow outlier does not move the median.
	units := [][]float64{
		{probeRefMs, probeRefMs, probeRefMs},
		{2 * probeRefMs, 2 * probeRefMs, 2 * probeRefMs},
		{probeRefMs, probeRefMs, 9 * probeRefMs},
	}
	for k, us := range units {
		for i, u := range us {
			win.probe = append(win.probe, probeReading{at: sec(float64(k) + 0.1 + 0.2*float64(i)), ms: u})
		}
	}
	parts := win.parts()
	for k, want := range []struct{ raw, scaled float64 }{
		{(1000 - 3*probeRefMs - 40) / 100, (1000 - 3*probeRefMs - 40) / 100},
		{(1000 - 6*probeRefMs - 40) / 100, (1000 - 6*probeRefMs - 40) / 200},
		{(1000 - 11*probeRefMs - 40) / 100, (1000 - 11*probeRefMs - 40) / 100},
	} {
		p := parts[k]
		if math.Abs(p.rawCPUPerImage-want.raw) > 1e-9 || math.Abs(p.cpuPerImage-want.scaled) > 1e-9 {
			t.Errorf("part %d: %.6f ms/image as measured, %.6f scaled; want %.6f, %.6f",
				k+1, p.rawCPUPerImage, p.cpuPerImage, want.raw, want.scaled)
		}
		if p.imagesPerS != 100 {
			t.Errorf("part %d: %g images/s, want 100", k+1, p.imagesPerS)
		}
	}
	if got, want := win.cpuPerImage(), (1000-11*probeRefMs-40)/100; math.Abs(got-want) > 1e-9 {
		t.Errorf("window: %.6f ms/image, want the median part's %.6f", got, want)
	}
}

func TestProbeKernelTimesAUnit(t *testing.T) {
	p, err := newProbe()
	if err != nil {
		t.Fatal(err)
	}
	defer p.free()
	stop := make(chan struct{})
	go func() {
		time.Sleep(5 * probePeriod)
		close(stop)
	}()
	rs := p.run(realClock{start: time.Now()}, stop)
	if len(rs) < 2 {
		t.Fatalf("%d readings in %v, want several", len(rs), 5*probePeriod)
	}
	unit, cpu := probeSpan(rs, 0, time.Hour)
	if unit <= 0 || cpu < unit {
		t.Errorf("median unit %g ms, total %g ms", unit, cpu)
	}
}

func TestHeapPeaksBinTheWindow(t *testing.T) {
	win := &window{length: 10 * time.Second}
	for ms := 0; ms <= 10_500; ms += 250 { // the last call ends after the schedule
		win.samples = append(win.samples, sample{at: time.Duration(ms) * time.Millisecond, heap: float64(ms % 1000)})
	}
	win.samples[41].heap = 5000 // at 10.25 s: counted in the last bin
	peaks := win.heapPeaks()
	if len(peaks) != heapBins {
		t.Fatalf("%d bins, want %d", len(peaks), heapBins)
	}
	for b, p := range peaks {
		want := 750.0
		if b == heapBins-1 {
			want = 5000
		}
		if p != want {
			t.Errorf("bin %d peak %g, want %g", b, p, want)
		}
	}
}
