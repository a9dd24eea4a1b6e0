package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/meanet/meanet/internal/core"
)

// latencies returns every request's latency in milliseconds.
func (win *window) latencies() []float64 {
	out := make([]float64, len(win.outcomes))
	for i, o := range win.outcomes {
		out[i] = ms(o.latency())
	}
	return out
}

// lags returns the generator's wake-up lateness of every request sent from
// an idle stream, in milliseconds.
func (win *window) lags() []float64 {
	var out []float64
	for _, o := range win.outcomes {
		if o.lag >= 0 {
			out = append(out, ms(o.lag))
		}
	}
	return out
}

// cpuPerImage is the window's CPU milliseconds per image at the reference
// host speed: the median over its parts.
func (win *window) cpuPerImage() float64 {
	return medianOf(win.parts(), func(p part) float64 { return p.cpuPerImage })
}

// subWindows is how many equal parts a window is split into. The CPU
// metric reports the median over the parts, so a burst of interference from
// other tenants of the host inside one part does not move it.
const subWindows = 3

// heapBins is how many equal bins heap_peak_mb is taken over: it reports
// the median of the bins' peaks. The heap is a sawtooth of GC cycles, many
// in each bin, and the highest tooth of a whole part depends on where a
// burst of arrivals happened to meet a GC trigger; the typical bin's does
// not.
const heapBins = 10

// heapPeaks is the peak heap of each of heapBins equal bins of the window,
// in bytes; the last bin also holds the samples taken after the schedule.
func (win *window) heapPeaks() []float64 {
	peaks := make([]float64, heapBins)
	for _, smp := range win.samples {
		b := min(int(heapBins*smp.at/win.length), heapBins-1)
		peaks[b] = max(peaks[b], smp.heap)
	}
	return peaks
}

// part is one sub-window's measurements.
type part struct {
	imagesPerS     float64
	rawCPUPerImage float64 // process CPU less the probe's and idle GC marking, per image
	probeMs        float64 // the probe's unit time: the mean over CPUs of their median
	probeByCPU     map[int]float64
	cpuPerImage    float64 // rawCPUPerImage scaled to the reference host speed
}

// parts splits the window into subWindows parts of equal scheduled length;
// the last part also holds the calls that ended after the schedule.
func (win *window) parts() []part {
	bound := func(k int) time.Duration { return time.Duration(k) * win.length / subWindows }
	at := func(d time.Duration) int { // first sample at or after d
		i := sort.Search(len(win.samples), func(i int) bool { return win.samples[i].at >= d })
		return min(i, len(win.samples)-1)
	}
	out := make([]part, subWindows)
	for k := range out {
		i0, i1 := at(bound(k)), at(bound(k+1))
		if k == subWindows-1 {
			i1 = len(win.samples) - 1
		}
		s0, s1 := win.samples[i0], win.samples[i1]
		p := &out[k]
		unitMs, probeCPU := probeSpan(win.probe, s0.at, s1.at)
		p.probeMs = unitMs
		p.probeByCPU = probePerCPU(win.probe, s0.at, s1.at)
		if imgs := float64(s1.done - s0.done); imgs > 0 {
			p.imagesPerS = imgs / (s1.at - s0.at).Seconds()
		}
		if imgs := float64(s1.done - s0.done); imgs > 0 && unitMs > 0 {
			p.rawCPUPerImage = (ms(s1.cpu-s0.cpu) - probeCPU - 1000*(s1.idleMark-s0.idleMark)) / imgs
			p.cpuPerImage = p.rawCPUPerImage * probeRefMs / unitMs
		}
	}
	return out
}

// byCPU formats per-CPU probe unit times in CPU order.
func byCPU(units map[int]float64) string {
	cpus := make([]int, 0, len(units))
	for c := range units {
		cpus = append(cpus, c)
	}
	sort.Ints(cpus)
	var b strings.Builder
	for i, c := range cpus {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d: %.3f ms", c, units[c])
	}
	return b.String()
}

// medianOf is the median over the parts of f.
func medianOf(parts []part, f func(part) float64) float64 {
	v := make([]float64, len(parts))
	for i, p := range parts {
		v[i] = f(p)
	}
	return median(v)
}

// endToEnd computes the user-visible metrics of an untraced window.
func endToEndMetrics(w workloadDef, s *system, win *window) *report {
	r := newReport()
	imgs := float64(win.tl.images)
	rep := win.report
	lat := win.latencies()
	p50, _ := percentile(lat, 50)
	p90, _ := percentile(lat, 90)
	within := 0
	for _, o := range win.outcomes {
		if o.err == nil && o.latency() <= w.Limit {
			within++
		}
	}
	r.set("setup_s", s.tr.phases.cpuScaled(), "s")
	r.set("images_per_s", imgs/win.elapsed.Seconds(), "1/s")
	r.set("cpu_ms_per_image", win.cpuPerImage(), "ms")
	r.set("latency_p50_ms", p50, "ms")
	r.set("latency_p90_ms", p90, "ms")
	r.set("slo_share", float64(within)/float64(len(win.outcomes)), "share")
	r.set("accuracy", float64(win.tl.correct)/imgs, "share")
	r.set("cloud_fraction", rep.CloudFraction(), "share")
	r.set("upload_bytes_per_image", float64(win.after.edgeSent-win.before.edgeSent)/imgs, "B")
	r.set("edge_energy_mj_per_image", 1000*rep.Energy.TotalJ()/float64(rep.N), "mJ")
	r.set("heap_peak_mb", median(win.heapPeaks())/1e6, "MB")
	r.set("error_rate", float64(win.tl.failedImages)/imgs, "share")
	return r
}

// layerTimes sums traced spans per layer.
type layerTimes struct {
	kindNs, kindMACs                            map[string]int64
	mainNs, extNs                               int64
	cloudNs                                     int64 // server model forwards and hop stage units
	hopNs                                       map[string]int64
	classifyNs, classifySelfNs, classifyWriteNs int64
}

func sumSpans(spans []span) layerTimes {
	lt := layerTimes{kindNs: map[string]int64{}, kindMACs: map[string]int64{}, hopNs: map[string]int64{}}
	self := selfTimes(spans)
	isClassify := make(map[int64]bool)
	for _, sp := range spans {
		if sp.Name == spanClassify {
			isClassify[sp.ID] = true
		}
	}
	for _, sp := range spans {
		d := sp.dur()
		switch sp.Name {
		case spanClassify:
			lt.classifyNs += d
			lt.classifySelfNs += self[sp.ID]
		case spanWrite:
			if isClassify[sp.Parent] {
				lt.classifyWriteNs += d
			}
		case spanModel:
			lt.cloudNs += d
		case spanUnit:
			lt.kindNs[sp.Kind] += d
			lt.kindMACs[sp.Kind] += sp.MACs
			switch sp.Where {
			case "main", "mainexit":
				lt.mainNs += d
			case "adaptive", "extension", "extexit":
				lt.extNs += d
			case "hop1", "hop2":
				lt.hopNs[sp.Where] += d
				lt.cloudNs += d
			}
		}
	}
	return lt
}

// perLayerMetrics computes the per-layer metrics of a traced window; base
// is the untraced window measured just before it in the same run.
func perLayerMetrics(s *system, base, win *window, spans []span) *report {
	r := newReport()
	imgs := float64(win.tl.images)
	calls := float64(win.tl.calls)
	rep := win.report
	lt := sumSpans(spans)
	nsPerImage := func(ns int64) float64 { return float64(ns) / 1e6 / imgs }

	for _, k := range nnKinds {
		r.set("nn."+k+".ms_per_image", nsPerImage(lt.kindNs[k]), "ms")
		gmacs := 0.0
		if ns := lt.kindNs[k]; ns > 0 {
			gmacs = float64(lt.kindMACs[k]) / float64(ns) // MACs per ns is GMAC/s
		}
		r.set("nn."+k+".gmacs", gmacs, "GMAC/s")
	}
	r.set("core.main.ms_per_image", nsPerImage(lt.mainNs), "ms")
	r.set("core.ext.ms_per_image", nsPerImage(lt.extNs), "ms")
	r.set("core.ext_share", float64(rep.Exits[core.ExitExtension])/float64(rep.N), "share")

	r.set("edge.classify.self_ms_per_call", float64(lt.classifySelfNs)/1e6/calls, "ms")
	uploads := rep.RawUploads + rep.FeatureUploads
	featShare := 0.0
	if uploads > 0 {
		featShare = float64(rep.FeatureUploads) / float64(uploads)
	}
	r.set("edge.rep_features_share", featShare, "share")
	r.set("edge.rep_flips", float64(rep.RepFlips), "count")
	maxShare, routerFailures := 1.0, 0.0
	if len(win.after.replicas) > 0 {
		var total, most uint64
		for i, a := range win.after.replicas {
			n := a.Offloads - win.before.replicas[i].Offloads
			total += n
			most = max(most, n)
			routerFailures += float64(a.Failures - win.before.replicas[i].Failures)
		}
		if total > 0 {
			maxShare = float64(most) / float64(total)
		}
	}
	r.set("edge.router.max_replica_share", maxShare, "share")
	r.set("edge.router.failures", routerFailures, "count")
	r.set("edge.sheds", float64(rep.ShedEvents), "count")
	r.set("edge.cloud_failures", float64(rep.CloudFailures), "count")

	ct := win.after.conns.sub(win.before.conns)
	r.set("transport.frames_out_per_image", float64(ct.frames)/imgs, "count")
	r.set("transport.bytes_out_per_image", float64(ct.bytesOut)/imgs, "B")
	r.set("transport.bytes_in_per_image", float64(ct.bytesIn)/imgs, "B")
	writeMS := 0.0
	if ct.frames > 0 {
		writeMS = float64(ct.writeNs) / 1e6 / float64(ct.frames)
	}
	r.set("transport.write_ms_per_frame", writeMS, "ms")

	var relErr, rtt float64
	for _, e := range win.estimates {
		if s.link.Mbps > 0 {
			relErr += math.Abs(e.Mbps-s.link.Mbps) / s.link.Mbps
		}
		rtt += ms(e.RTT)
	}
	n := float64(len(win.estimates))
	r.set("linkest.mbps_rel_error", relErr/n, "share")
	r.set("linkest.rtt_ms", rtt/n, "ms")

	d := serverDeltas(win)
	terminal := d
	if s.chain != nil {
		terminal = d[len(d)-1:]
	}
	var served, frames, errs, sheds uint64
	for _, sd := range terminal {
		served += sd.served
		frames += sd.requests
	}
	for _, sd := range d {
		errs += sd.errors
		sheds += sd.sheds
	}
	batchMean := 0.0
	if frames > 0 {
		batchMean = float64(served) / float64(frames)
	}
	r.set("cloud.forward.ms_per_image", nsPerImage(lt.cloudNs), "ms")
	r.set("cloud.forward.batch_mean", batchMean, "count")
	r.set("cloud.inflight_mean", win.inflightMean, "count")
	r.set("cloud.hop1.ms_per_image", nsPerImage(lt.hopNs["hop1"]), "ms")
	r.set("cloud.hop2.ms_per_image", nsPerImage(lt.hopNs["hop2"]), "ms")
	r.set("cloud.errors", float64(errs), "count")
	r.set("cloud.sheds", float64(sheds), "count")

	g := win.after.goStats.sub(win.before.goStats)
	gcShare := 0.0
	if g.totalCPU > 0 {
		gcShare = g.gcCPU / g.totalCPU
	}
	r.set("go.alloc_bytes_per_image", g.allocBytes/imgs, "B")
	r.set("go.allocs_per_image", g.allocObjects/imgs, "count")
	r.set("go.gc_cpu_share", gcShare, "share")
	r.set("go.gc_cycles_per_s", g.gcCycles/win.elapsed.Seconds(), "1/s")

	ph := s.tr.phases
	r.set("setup.data_s", ph.data.Seconds(), "s")
	r.set("setup.train_main_s", ph.main.Seconds(), "s")
	r.set("setup.train_edge_s", ph.edge.Seconds(), "s")
	r.set("setup.train_cloud_s", ph.cloud.Seconds(), "s")
	r.set("setup.train_tail_s", ph.tail.Seconds(), "s")

	lag, _ := percentile(win.lags(), 99)
	r.set("loadgen.lag_p99_ms", lag, "ms")
	r.set("host.steal_share", stealShare(win.before.host, win.after.host), "share")
	r.set("trace.overhead_share", win.cpuPerImage()/base.cpuPerImage()-1, "share")
	return r
}

// printValidity prints the data that says whether a window's numbers can be
// trusted, with a FLAG line for each reason they cannot.
func printValidity(out io.Writer, label string, win *window) {
	lat := win.latencies()
	_, b90 := percentile(lat, 90)
	p99, b99 := percentile(lat, 99)
	lag, _ := percentile(win.lags(), 99)
	steal := stealShare(win.before.host, win.after.host)
	cpu := win.after.cpu - win.before.cpu
	g := win.after.goStats.sub(win.before.goStats)
	fmt.Fprintf(out, "%s validity: host steal %.1f%%, process CPU %.2f cores (%.0f%% in the kernel, %.0f%% GC), generator lag p99 %.2f ms, requests sent %d, succeeded %d, failed %d\n",
		label, 100*steal, cpu.Seconds()/win.elapsed.Seconds(), 100*float64(win.after.sys-win.before.sys)/float64(cpu),
		100*g.gcCPU/g.totalCPU, lag, win.tl.calls, win.tl.calls-win.tl.failedCalls, win.tl.failedCalls)
	if !win.after.hostOK {
		fmt.Fprintf(out, "%s FLAG: /proc/stat unreadable, host steal unknown\n", label)
	}
	if lag > ms(lagLimit) {
		fmt.Fprintf(out, "%s FLAG: the load generator fell behind (lag p99 %.2f ms > %.0f ms)\n", label, lag, ms(lagLimit))
	}
	if b90 < 10 {
		fmt.Fprintf(out, "%s FLAG: latency p90 has only %d samples beyond it (need 10)\n", label, b90)
	}
	if b99 >= 10 {
		fmt.Fprintf(out, "%s latency: %d samples, p99 %.3f ms (%d beyond it)\n", label, len(lat), p99, b99)
	} else {
		fmt.Fprintf(out, "%s FLAG: latency p99 not reported: %d samples leave only %d beyond it (need 10)\n", label, len(lat), b99)
	}
	peaks := win.heapPeaks()
	for i := range peaks {
		peaks[i] /= 1e6
	}
	fmt.Fprintf(out, "%s heap peaks by tenth of the window, MB: %.2f\n", label, peaks)
	for k, p := range win.parts() {
		fmt.Fprintf(out, "%s part %d/%d: %.1f images/s, %.3f CPU ms/image = %.3f as measured x %.3f host speed (probe unit %.3f ms; by CPU %s)\n",
			label, k+1, subWindows, p.imagesPerS, p.cpuPerImage, p.rawCPUPerImage, probeRefMs/p.probeMs, p.probeMs, byCPU(p.probeByCPU))
	}
}

// printLayerChecks prints the shares that show which layer a workload
// stresses.
func printLayerChecks(out io.Writer, s *system, win *window, spans []span) {
	lt := sumSpans(spans)
	var nnNs int64
	for _, ns := range lt.kindNs {
		nnNs += ns
	}
	g := win.after.goStats.sub(win.before.goStats)
	cpu := (win.after.cpu - win.before.cpu).Seconds()
	gcCPU := 0.0
	if g.totalCPU > 0 {
		gcCPU = cpu * g.gcCPU / g.totalCPU
	}
	fmt.Fprintf(out, "layer check: nn unit forwards %.1f%% + GC %.1f%% of process CPU (unit time is wall time on the calling goroutine)\n",
		100*float64(nnNs)/1e9/cpu, 100*gcCPU/cpu)
	if lt.classifyNs > 0 {
		fmt.Fprintf(out, "layer check: uplink writes %.1f%% + offload wait and gate (self) %.1f%% of request latency\n",
			100*float64(lt.classifyWriteNs)/float64(lt.classifyNs), 100*float64(lt.classifySelfNs)/float64(lt.classifyNs))
	}
	if s.chain != nil {
		d := serverDeltas(win)
		fmt.Fprintf(out, "layer check: %d images, hop 1 relayed %d, hop 2 served %d\n", win.tl.images, d[0].relayed, d[1].served)
	}
	for i, a := range win.after.replicas {
		b := win.before.replicas[i]
		fmt.Fprintf(out, "router: replica %s: %d offloads (%d before the window), %d sheds, %d failures, tail %v\n",
			a.Addr, a.Offloads-b.Offloads, b.Offloads, a.Sheds-b.Sheds, a.Failures-b.Failures, a.TailCapable)
	}
}

func secs(d time.Duration) string { return fmt.Sprintf("%.2fs", d.Seconds()) }
