// Command perfbench is the serving benchmark of the MEANet edge-cloud
// system. One run sets up a trained C100-B tiny deployment from a fixed
// system seed, drives one named workload from a workload seed, checks every
// prediction against an in-process reference, and prints its metrics with
// their units. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// run measures an untraced window and then a traced one of the same length,
// and prints the per-layer metrics. See README.md for the workloads and the
// map from layer to metric.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload tiered-loopback --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to drive: "+workloadNames())
	seed := fs.Int64("seed", 1, "workload seed: picks the images, their order and arrival times")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want --workload %s, --seconds ≥ 1 and --trace 0|1\n", workloadNames())
		return 2
	}
	res, err := runWorkload(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, "|")
}

func runWorkload(w workloadDef, seed int64, length time.Duration, traced bool, out io.Writer) (*result, error) {
	mode := "untraced"
	var t *tracer
	if traced {
		mode = "traced"
		t = newTracer()
	}
	fmt.Fprintf(out, "perfbench: workload %s, workload seed %d, system seed %d, %v window, %s\n",
		w.Name, seed, systemSeed, length, mode)
	s, err := standUp(w, seed, t)
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", w.Name, err)
	}
	defer s.close()
	ph := s.tr.phases
	fmt.Fprintf(out, "setup: %.2fs CPU = %s as measured x %.3f host speed (probe unit %.3f ms); %s wall = data %s + main %s + edge %s + cloud AI %s + tail %s + serve and warm-up %s\n",
		ph.cpuScaled(), secs(ph.cpu), probeRefMs/ph.probeMs, ph.probeMs, secs(ph.total()), secs(ph.data), secs(ph.main), secs(ph.edge), secs(ph.cloud), secs(ph.tail), secs(ph.serve))
	fmt.Fprintf(out, "workload: threshold %.4f, pool %d held-out images, latency limit %v, link %s\n",
		s.policy.Threshold, s.pool.N, w.Limit, linkString(s))

	res := &result{Correct: true}
	check := func(label string, win *window) {
		printValidity(out, label, win)
		res.Attempted += win.tl.calls
		res.Failed += win.tl.failedCalls
		bad := s.gate(win)
		for _, b := range bad {
			fmt.Fprintf(out, "%s gate FAILED: %s\n", label, b)
		}
		if len(bad) > 0 {
			res.Correct = false
			return
		}
		fmt.Fprintf(out, "%s gate: %d images in %d calls match the in-process reference bitwise; exit, server and byte accounting balance\n",
			label, win.tl.images, win.tl.calls)
	}

	base := s.measure(w, seed, length, nil)
	check("untraced", base)
	e2e := endToEndMetrics(w, s, base)
	printMetrics(out, "", e2e, endToEnd)
	defs := endToEnd
	final := e2e
	if traced {
		t.on.Store(true)
		win := s.measure(w, seed, length, t)
		t.on.Store(false)
		spans := t.take()
		check("traced", win)
		final = perLayerMetrics(s, base, win, spans)
		printMetrics(out, "layer ", final, perLayer)
		printLayerChecks(out, s, win, spans)
		path, err := saveSpans(w, seed, spans)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(out, "trace: %d spans written to %s\n", len(spans), path)
		defs = perLayer
	}
	if res.Metrics, err = final.only(defs); err != nil {
		return nil, err
	}
	return res, nil
}

func linkString(s *system) string {
	if s.link.Mbps == 0 && s.link.Latency == 0 {
		return "loopback"
	}
	return fmt.Sprintf("%v / %g Mbps per connection", s.link.Latency, s.link.Mbps)
}

// printMetrics prints every measured metric; those outside defs are
// printed as unbounded: the JSON result and BENCHMARK.json leave them out.
func printMetrics(out io.Writer, prefix string, r *report, defs []metricDef) {
	listed := make(map[string]bool, len(defs))
	for _, d := range defs {
		listed[d.Name] = true
	}
	for _, n := range r.names {
		m := r.values[n]
		kind := "metric"
		if !listed[n] {
			kind = "unbounded"
		}
		fmt.Fprintf(out, "%s%-9s %-34s %14.6g %s\n", prefix, kind, n, m.Value, m.Unit)
	}
}

// saveSpans writes the traced window's spans as JSON lines under
// .bench_build in the working directory.
func saveSpans(w workloadDef, seed int64, spans []span) (string, error) {
	dir := ".bench_build"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.jsonl", w.Name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := writeSpans(f, spans); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
