package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// samples and how many samples lie strictly beyond its rank. samples need
// not be sorted; it is not modified.
func percentile(samples []float64, p float64) (value float64, beyond int) {
	if len(samples) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s) - rank
}

// median is the middle value (the mean of the two middle values for an
// even count).
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	user, sys := cpuTimes()
	return user + sys
}

// cpuTimes is the process's user and system CPU time so far.
func cpuTimes() (user, sys time.Duration) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())
}

// Go runtime metrics the benchmark reads.
const (
	rmAllocBytes   = "/gc/heap/allocs:bytes"
	rmAllocObjects = "/gc/heap/allocs:objects"
	rmGCCycles     = "/gc/cycles/total:gc-cycles"
	rmGCCPU        = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU     = "/cpu/classes/total:cpu-seconds"
	rmHeapObjects  = "/memory/classes/heap/objects:bytes"
	rmHeapUnused   = "/memory/classes/heap/unused:bytes"
	rmGCIdleMark   = "/cpu/classes/gc/mark/idle:cpu-seconds"
)

// goSnapshot is a reading of the cumulative runtime counters.
type goSnapshot struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPU, totalCPU                    float64
}

func readGo() goSnapshot {
	s := []metrics.Sample{{Name: rmAllocBytes}, {Name: rmAllocObjects}, {Name: rmGCCycles}, {Name: rmGCCPU}, {Name: rmTotalCPU}}
	metrics.Read(s)
	return goSnapshot{
		allocBytes:   sampleValue(s[0]),
		allocObjects: sampleValue(s[1]),
		gcCycles:     sampleValue(s[2]),
		gcCPU:        sampleValue(s[3]),
		totalCPU:     sampleValue(s[4]),
	}
}

func (a goSnapshot) sub(b goSnapshot) goSnapshot {
	return goSnapshot{a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects, a.gcCycles - b.gcCycles,
		a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	default:
		return 0
	}
}

// heapSampler reads heap objects plus unused heap, the memory the Go heap
// holds on behalf of the program, and the CPU seconds the GC has spent
// marking on otherwise idle processors so far.
type heapSampler struct{ s []metrics.Sample }

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: rmHeapObjects}, {Name: rmHeapUnused}, {Name: rmGCIdleMark}}}
}

func (h *heapSampler) read() (heap, idleMark float64) {
	metrics.Read(h.s)
	return sampleValue(h.s[0]) + sampleValue(h.s[1]), sampleValue(h.s[2])
}

// cpuStat is the aggregate CPU line of /proc/stat in clock ticks.
type cpuStat struct{ total, steal float64 }

// readCPUStat reads the host's aggregate CPU counters; ok is false where
// /proc/stat is unavailable.
func readCPUStat() (cpuStat, bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return cpuStat{}, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return cpuStat{}, false
	}
	return parseCPUStat(sc.Text())
}

// parseCPUStat parses "cpu user nice system idle iowait irq softirq steal
// ..."; guest time is already part of user time, so only the first eight
// fields count.
func parseCPUStat(line string) (cpuStat, bool) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}, false
	}
	var st cpuStat
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return cpuStat{}, false
		}
		st.total += v
		if i == 8 {
			st.steal = v
		}
	}
	return st, true
}

// stealShare is the share of host CPU time stolen by the hypervisor between
// two readings.
func stealShare(a, b cpuStat) float64 {
	if b.total <= a.total {
		return 0
	}
	return (b.steal - a.steal) / (b.total - a.total)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics in print order.
type report struct {
	names  []string
	values map[string]metric
}

func newReport() *report { return &report{values: make(map[string]metric)} }

func (r *report) set(name string, value float64, unit string) {
	if _, ok := r.values[name]; !ok {
		r.names = append(r.names, name)
	}
	r.values[name] = metric{Value: value, Unit: unit}
}

// only returns the metrics named in defs, in that order; a missing one is
// an error.
func (r *report) only(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := r.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		if m.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s has unit %s, want %s", d.Name, m.Unit, d.Unit)
		}
		out[d.Name] = m
	}
	return out, nil
}
