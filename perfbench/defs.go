package main

import (
	"time"

	"github.com/meanet/meanet/internal/netsim"
)

// systemSeed fixes the dataset and every trained weight. The workload seed
// given on the command line only picks images, their order and arrival
// times, so every workload seed serves an identical system.
const systemSeed = 2

// Workload constants.
const (
	cloudRetries = 1                    // re-offload attempts, as meanet-edge defaults
	lagLimit     = 5 * time.Millisecond // loadgen.lag_p99_ms above this flags the run
)

// workloadDef is one workload: what it trains and serves, and how it is
// driven. Each workload uses 2 load goroutines: the host it was sized on
// has 2 cores.
type workloadDef struct {
	Name  string
	Why   string
	Batch int           // images per Classify call
	Rate  float64       // open-loop arrivals per second over both goroutines; 0 = closed loop
	Limit time.Duration // per-call latency limit behind slo_share
	Link  netsim.Link   // shaping of every edge connection; zero = loopback
	need  trainNeeds
	serve func(*system, *tracer) error
}

var workloads = []workloadDef{
	{
		Name:  "tiered-loopback",
		Why:   "CPU-bound Algorithm 2: 2 closed-loop edges x 16-image calls, raw offload over loopback to the deep cloud CNN; threshold = validation midpoint; limit 150 ms",
		Batch: 16,
		Limit: 150 * time.Millisecond,
		need:  trainNeeds{edge: true, cloudCNN: true},
		serve: (*system).serveTiered,
	},
	{
		Name:  "features-wan",
		Why:   "link-bound: 2 closed-loop callers x 16 images share 1 auto-offload runtime; p2c over 2 feature-tail replicas on 5 ms/2 Mbps links; threshold = mu_correct; limit 160 ms",
		Batch: 16,
		Limit: 160 * time.Millisecond,
		Link:  netsim.Link{Latency: 5 * time.Millisecond, Mbps: 2},
		need:  trainNeeds{edge: true, tail: true},
		serve: (*system).serveFeaturesWAN,
	},
	{
		Name:  "chain3-open",
		Why:   "latency-limited per-frame path: 2 Poisson streams, 70/s total, 1-image calls via a routed 3-hop chain cut at MainBoundary/2 and MainBoundary; limit 15 ms",
		Batch: 1,
		// About a third of the chain's closed-loop capacity with 2 callers.
		Rate:  70,
		Limit: 15 * time.Millisecond,
		need:  trainNeeds{tail: true},
		serve: (*system).serveChain,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef is one metric as BENCHMARK.json lists it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees that stay steady on a
// shared host; every untraced run reports them. The wall-clock throughput
// and latency metrics of a CPU-bound path move with the host's other
// tenants, so runs print them as text lines only (see README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_ms_per_image", "ms", "lower"},
	{"accuracy", "share", "higher"},
	{"cloud_fraction", "share", "lower"},
	{"upload_bytes_per_image", "B", "lower"},
	{"edge_energy_mj_per_image", "mJ", "lower"},
	{"heap_peak_mb", "MB", "lower"},
}

// nnKinds are the unit kinds the nn metrics break forward time down by.
var nnKinds = []string{"conv", "bn", "relu", "residual", "pool", "linear"}

// perLayer are the metrics of single layers, printed by every traced run.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, k := range nnKinds {
		defs = append(defs,
			metricDef{"nn." + k + ".ms_per_image", "ms", "lower"},
			metricDef{"nn." + k + ".gmacs", "GMAC/s", "higher"})
	}
	return append(defs, []metricDef{
		{"core.main.ms_per_image", "ms", "lower"},
		{"core.ext.ms_per_image", "ms", "lower"},
		{"core.ext_share", "share", "lower"},
		{"edge.classify.self_ms_per_call", "ms", "lower"},
		{"edge.rep_features_share", "share", "higher"},
		{"edge.rep_flips", "count", "lower"},
		{"edge.router.max_replica_share", "share", "lower"},
		{"edge.router.failures", "count", "lower"},
		{"edge.sheds", "count", "lower"},
		{"edge.cloud_failures", "count", "lower"},
		{"transport.frames_out_per_image", "count", "lower"},
		{"transport.bytes_out_per_image", "B", "lower"},
		{"transport.bytes_in_per_image", "B", "lower"},
		{"transport.write_ms_per_frame", "ms", "lower"},
		{"linkest.mbps_rel_error", "share", "lower"},
		{"linkest.rtt_ms", "ms", "lower"},
		{"cloud.forward.ms_per_image", "ms", "lower"},
		{"cloud.forward.batch_mean", "count", "higher"},
		{"cloud.inflight_mean", "count", "lower"},
		{"cloud.hop1.ms_per_image", "ms", "lower"},
		{"cloud.hop2.ms_per_image", "ms", "lower"},
		{"cloud.errors", "count", "lower"},
		{"cloud.sheds", "count", "lower"},
		{"go.alloc_bytes_per_image", "B", "lower"},
		{"go.allocs_per_image", "count", "lower"},
		{"go.gc_cpu_share", "share", "lower"},
		{"go.gc_cycles_per_s", "1/s", "lower"},
		{"setup.data_s", "s", "lower"},
		{"setup.train_main_s", "s", "lower"},
		{"setup.train_edge_s", "s", "lower"},
		{"setup.train_cloud_s", "s", "lower"},
		{"setup.train_tail_s", "s", "lower"},
		{"loadgen.lag_p99_ms", "ms", "lower"},
		{"host.steal_share", "share", "lower"},
		{"trace.overhead_share", "share", "lower"},
	}...)
}()
