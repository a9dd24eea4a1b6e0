package meanet_test

// Benchmark harness: one testing.B benchmark per paper table and figure
// (regenerating the experiment at tiny scale and reporting its headline
// numbers as custom metrics), plus micro-benchmarks of the hot kernels.
//
//	go test -bench=. -benchmem
//
// Training of the shared systems happens once per process (cached in the
// experiment context); each benchmark iteration re-runs the measurement
// phase of its experiment.

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/energy"
	"github.com/meanet/meanet/internal/experiments"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/netsim/fleet"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/opt"
	"github.com/meanet/meanet/internal/profile"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

var (
	benchOnce sync.Once
	benchCtx  *experiments.Context
)

// benchContext lazily builds the shared tiny-scale experiment context.
func benchContext(b *testing.B) *experiments.Context {
	b.Helper()
	benchOnce.Do(func() {
		benchCtx = experiments.NewContext(experiments.Config{Scale: data.ScaleTiny, Seed: 1})
	})
	return benchCtx
}

func BenchmarkFig2ConfusionMatrix(b *testing.B) {
	ctx := benchContext(b)
	var acc float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig2(ctx)
		if err != nil {
			b.Fatal(err)
		}
		acc = r.Confusion.Accuracy()
	}
	b.ReportMetric(100*acc, "main-acc-%")
}

func BenchmarkFig3ComplexityCategories(b *testing.B) {
	ctx := benchContext(b)
	var complexShare float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(ctx)
		if err != nil {
			b.Fatal(err)
		}
		complexShare = float64(r.ComplexN) / float64(r.EasyN+r.HardN+r.ComplexN)
	}
	b.ReportMetric(100*complexShare, "complex-%")
}

func BenchmarkFig5ErrorTypes(b *testing.B) {
	ctx := benchContext(b)
	var typeIV float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(ctx)
		if err != nil {
			b.Fatal(err)
		}
		typeIV = r.CIFAR.HardAsHard
	}
	b.ReportMetric(100*typeIV, "hard-as-hard-%")
}

func BenchmarkFig6TrainingMemory(b *testing.B) {
	ctx := benchContext(b)
	var saving float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6(ctx)
		if err != nil {
			b.Fatal(err)
		}
		saving = 1 - r.Rows[0].OursMiB/r.Rows[0].JointMiB
	}
	b.ReportMetric(100*saving, "r32a-mem-saving-%")
}

func BenchmarkFig7ThresholdSweep(b *testing.B) {
	ctx := benchContext(b)
	var bestAcc float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(ctx)
		if err != nil {
			b.Fatal(err)
		}
		bestAcc = r.Series[0].Points[0].Accuracy // threshold 0 = all-cloud
	}
	b.ReportMetric(100*bestAcc, "allcloud-acc-%")
}

func BenchmarkFig8EnergySweep(b *testing.B) {
	ctx := benchContext(b)
	var edgeOnlyJ float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(ctx)
		if err != nil {
			b.Fatal(err)
		}
		edgeOnlyJ = r.CIFAR[0].TotalJ()
	}
	b.ReportMetric(edgeOnlyJ, "cifar-edgeonly-J")
}

func BenchmarkTableICostModel(b *testing.B) {
	ctx := benchContext(b)
	var edgeCloudJ float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableI(ctx)
		if err != nil {
			b.Fatal(err)
		}
		edgeCloudJ = r.Rows[2].ComputeJ + r.Rows[2].CommJ
	}
	b.ReportMetric(edgeCloudJ, "edgecloud-raw-J")
}

func BenchmarkTableIIHardAccuracy(b *testing.B) {
	ctx := benchContext(b)
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableII(ctx)
		if err != nil {
			b.Fatal(err)
		}
		gain = r.Rows[0].TestMEA - r.Rows[0].TestMain
	}
	b.ReportMetric(100*gain, "hard-test-gain-pts")
}

func BenchmarkTableIIIOverallAccuracy(b *testing.B) {
	ctx := benchContext(b)
	var det float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableIII(ctx)
		if err != nil {
			b.Fatal(err)
		}
		det = r.Rows[0].Detection
	}
	b.ReportMetric(100*det, "detection-%")
}

func BenchmarkTableIVDetection(b *testing.B) {
	ctx := benchContext(b)
	var hardMinusRandom float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableIV(ctx)
		if err != nil {
			b.Fatal(err)
		}
		hardMinusRandom = r.Rows[0].Detection - r.Rows[1].Detection
	}
	b.ReportMetric(100*hardMinusRandom, "hard-vs-random-pts")
}

func BenchmarkTableVClassSelection(b *testing.B) {
	ctx := benchContext(b)
	var halfHardGain float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableV(ctx)
		if err != nil {
			b.Fatal(err)
		}
		halfHardGain = r.Rows[0].TrainMEA - r.Rows[0].TrainMain
	}
	b.ReportMetric(100*halfHardGain, "half-hard-train-gain-pts")
}

func BenchmarkTableVIProfile(b *testing.B) {
	ctx := benchContext(b)
	var r32aTrained float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableVI(ctx)
		if err != nil {
			b.Fatal(err)
		}
		r32aTrained = r.Rows[0].TrainedMParam
	}
	b.ReportMetric(r32aTrained, "r32a-trained-Mparams")
}

func BenchmarkTableVIIPerImageCost(b *testing.B) {
	ctx := benchContext(b)
	var cifarEcpMilliJ float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.TableVII(ctx)
		if err != nil {
			b.Fatal(err)
		}
		cifarEcpMilliJ = 1000 * r.Rows[0].ComputeEnergyJ
	}
	b.ReportMetric(cifarEcpMilliJ, "cifar-Ecp-mJ")
}

func BenchmarkAblationCombine(b *testing.B) {
	ctx := benchContext(b)
	var sumVsMainOnly float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationCombine(ctx)
		if err != nil {
			b.Fatal(err)
		}
		sumVsMainOnly = r.Rows[0].TrainHard - r.Rows[2].TrainHard
	}
	b.ReportMetric(100*sumVsMainOnly, "adaptive-train-gain-pts")
}

func BenchmarkAblationOptimization(b *testing.B) {
	ctx := benchContext(b)
	var memRatio float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationOptimization(ctx)
		if err != nil {
			b.Fatal(err)
		}
		memRatio = r.Rows[0].MemoryMiB / r.Rows[1].MemoryMiB
	}
	b.ReportMetric(memRatio, "blockwise/joint-mem")
}

// --- Micro-benchmarks of the hot paths ---

func benchmarkMatMul(b *testing.B, size int) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.Randn(rng, 1, size, size)
	y := tensor.Randn(rng, 1, size, size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMul(x, y)
	}
	b.SetBytes(int64(size * size * 4))
	flops := 2 * float64(size) * float64(size) * float64(size)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func BenchmarkMatMul128(b *testing.B) { benchmarkMatMul(b, 128) }

func BenchmarkMatMul512(b *testing.B) { benchmarkMatMul(b, 512) }

func BenchmarkConv2DForward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	conv := nn.NewConv2D(rng, "b", 16, 32, 3, 1, 1, false)
	x := tensor.Randn(rng, 1, 8, 16, 16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x, false)
	}
}

func BenchmarkConv2DTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	conv := nn.NewConv2D(rng, "b", 8, 16, 3, 1, 1, false)
	x := tensor.Randn(rng, 1, 8, 8, 12, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := conv.Forward(x, true)
		nn.ZeroGrads(conv.Params())
		conv.Backward(out)
	}
}

func BenchmarkMEANetInferBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	backbone, err := models.BuildResNet(rng, models.ResNetEdgeC100(1))
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.BuildMEANetA(rng, backbone, 2, 20)
	if err != nil {
		b.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 16, 3, 12, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Infer(x, core.Policy{UseCloud: false}, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(16*b.N)/b.Elapsed().Seconds(), "images/s")
}

// BenchmarkCloudCNNInferBatch is the deep cloud CNN's eval forward at the
// serving shape: a ResNetCloud(3) classifier on a batch of 6 12x12 images,
// the mean batch the cloud server forms under the tiered-loopback load.
func BenchmarkCloudCNNInferBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	backbone, err := models.BuildResNet(rng, models.ResNetCloud(3))
	if err != nil {
		b.Fatal(err)
	}
	cls := models.NewClassifier(rng, backbone, 20)
	const batch = 6
	x := tensor.Randn(rng, 1, batch, 3, 12, 12)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls.Logits(x, false)
	}
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "images/s")
}

// BenchmarkCloudCNNTrainStep is one SGD step of the deep cloud CNN at the
// training shape: a ResNetCloud(3) classifier on a batch of 32 12x12
// images — forward, softmax cross-entropy, backward and the update.
func BenchmarkCloudCNNTrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	backbone, err := models.BuildResNet(rng, models.ResNetCloud(3))
	if err != nil {
		b.Fatal(err)
	}
	cls := models.NewClassifier(rng, backbone, 20)
	const batch = 32
	x := tensor.Randn(rng, 1, batch, 3, 12, 12)
	labels := make([]int, batch)
	for i := range labels {
		labels[i] = rng.Intn(20)
	}
	params := cls.Params()
	sgd := opt.NewSGD(0.01, 0.9, 5e-4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.ZeroGrads(params)
		_, dy := nn.SoftmaxCrossEntropy(cls.Logits(x, true), labels)
		cls.Backward(dy)
		sgd.Step(params)
	}
	b.ReportMetric(float64(batch*b.N)/b.Elapsed().Seconds(), "images/s")
}

// BenchmarkCloudOffload compares serial (one round trip per complex
// instance, the pre-batching Infer loop) against batched (one round trip
// per batch, the serving default) offload of 16 cloud-qualifying instances
// through both transports. The offload is measured in isolation — the edge
// MainForward is identical either way and would only dilute the gap.
func BenchmarkCloudOffload(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	cloudBackbone, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "offcloud", InChannels: 3, StemChannels: 8,
		Channels: []int{8, 16}, Blocks: []int{1, 1}, Strides: []int{1, 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	cloudModel := models.NewClassifier(rng, cloudBackbone, 8)
	const n = 16
	x := tensor.Randn(rng, 1, n, 3, 12, 12)

	run := func(b *testing.B, offload core.CloudBatchFunc) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			_, _, errs, err := offload(x)
			if err != nil {
				b.Fatal(err)
			}
			for _, e := range errs {
				if e != nil {
					b.Fatal(e)
				}
			}
		}
		b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "images/s")
	}

	inproc := &edge.InProcClient{Model: cloudModel}
	b.Run("inproc/serial", func(b *testing.B) {
		run(b, core.SerialOffload(func(img *tensor.Tensor) (int, float64, error) { return inproc.Classify(img) }))
	})
	b.Run("inproc/batched", func(b *testing.B) {
		run(b, edge.BatchOffload(inproc))
	})

	srv, err := cloud.NewServer(cloudModel, nil)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	client, err := edge.DialCloud(srv.Addr().String(), edge.DialConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	b.Run("tcp/serial", func(b *testing.B) {
		run(b, core.SerialOffload(func(img *tensor.Tensor) (int, float64, error) { return client.Classify(img) }))
	})
	b.Run("tcp/batched", func(b *testing.B) {
		run(b, edge.BatchOffload(client))
	})

	// The WAN pair is where aggregation pays: with per-message uplink
	// latency (the paper's WiFi setting), serial offload buys one round trip
	// per complex instance, batched offload exactly one per batch.
	wan, err := edge.DialCloud(srv.Addr().String(), edge.DialConfig{
		Link: netsim.Link{Latency: 2 * time.Millisecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer wan.Close()
	b.Run("wan/serial", func(b *testing.B) {
		run(b, core.SerialOffload(func(img *tensor.Tensor) (int, float64, error) { return wan.Classify(img) }))
	})
	b.Run("wan/batched", func(b *testing.B) {
		run(b, edge.BatchOffload(wan))
	})
}

// BenchmarkCloudOffloadModes measures the adaptive feature-vs-raw offload on
// the 2ms WAN transport: the same batch of cloud-qualifying instances is
// offloaded raw, as main-block features, and in auto mode (which resolves to
// the cheaper features representation here). Features are 3× smaller on the
// wire for this geometry, so the feature modes trade bytes for identical
// predictions. Reported per op: images/s and actual upload bytes.
func BenchmarkCloudOffloadModes(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	backbone, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "offmodes", InChannels: 3, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{2, 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.BuildMEANetA(rng, backbone, 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	tail := &cloud.Tail{Body: nn.Identity{}, Exit: models.NewExit(rng, "offmodes-tail", m.MainOutChannels(), 8)}
	srv, err := cloud.NewServer(cloud.Partitioned(m.Main, tail), tail)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	const n = 16
	x := tensor.Randn(rng, 1, n, 3, 16, 16)
	cost := &edge.CostParams{
		Compute:      energy.EdgeGPUCIFAR(),
		WiFi:         energy.DefaultWiFi(),
		ImageBytes:   4 * 3 * 16 * 16,
		FeatureBytes: 4 * int64(m.MainOutChannels()) * 8 * 8,
	}
	for _, mode := range []edge.OffloadMode{edge.OffloadRaw, edge.OffloadFeatures, edge.OffloadAuto} {
		b.Run("wan/"+mode.String(), func(b *testing.B) {
			client, err := edge.DialCloud(srv.Addr().String(), edge.DialConfig{
				Link: netsim.Link{Latency: 2 * time.Millisecond},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			rt, err := edge.NewRuntime(m, core.Policy{Threshold: 0, UseCloud: true}, client, cost)
			if err != nil {
				b.Fatal(err)
			}
			if err := rt.SetOffloadMode(mode); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rt.Classify(x); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "images/s")
			b.ReportMetric(float64(client.BytesSent())/float64(b.N), "upload-B/op")
		})
	}
}

// BenchmarkAdaptiveOffload measures the closed-loop adaptation on a real TCP
// transport whose shaped link alternates between a fast and a degraded state
// mid-run (netsim.ShapeVar): the runtime, in auto mode with a latency
// budget, is expected to ride the changes by flipping the upload
// representation, with the live estimator fed by the client's own round
// trips. Reported per op: images/s, actual upload bytes, and cumulative
// representation flips.
func BenchmarkAdaptiveOffload(b *testing.B) {
	rng := rand.New(rand.NewSource(10))
	backbone, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "adaptbench", InChannels: 3, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{2, 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.BuildMEANetA(rng, backbone, 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	tail := &cloud.Tail{Body: nn.Identity{}, Exit: models.NewExit(rng, "adapttail", m.MainOutChannels(), 8)}
	srv, err := cloud.NewServer(cloud.Partitioned(m.Main, tail), tail)
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	// The good link's send phase must exceed linkest's MinSendDur (1ms) or
	// the estimator (correctly) refuses to rate it.
	good := netsim.Link{Latency: time.Millisecond, Mbps: 500}
	degraded := netsim.Link{Latency: 2 * time.Millisecond, Mbps: 2}
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	shaper := netsim.ShapeVar(conn, good)
	client := edge.NewClientOnConn(shaper, edge.DialConfig{})
	defer client.Close()

	const n = 16
	x := tensor.Randn(rng, 1, n, 3, 16, 16)
	cost := &edge.CostParams{
		Compute:      energy.EdgeGPUCIFAR(),
		WiFi:         energy.DefaultWiFi(),
		ImageBytes:   4 * 3 * 16 * 16,
		FeatureBytes: 4 * int64(m.MainOutChannels()) * 8 * 8,
	}
	rt, err := edge.NewRuntime(m, core.Policy{Threshold: 0, UseCloud: true}, client, cost)
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.SetOffloadMode(edge.OffloadAuto); err != nil {
		b.Fatal(err)
	}
	// Budget between raw's PER-INSTANCE upload latency on the two links
	// (the unit the runtime's live decision compares): raw affordable on
	// the fast link only.
	rt.SetLatencyBudget((good.TransferTime(cost.ImageBytes) + degraded.TransferTime(cost.ImageBytes)) / 2)

	// Mature the estimator on the fast link before measuring.
	for i := 0; i < 10; i++ {
		if _, err := rt.Classify(x); err != nil {
			b.Fatal(err)
		}
	}
	warmupBytes := client.BytesSent() // rebaseline: warm-up uploads are not ops
	// Phases of 8 ops per link state — long enough for the EWMA (α=0.25)
	// to converge onto each state before the next switch.
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%16 == 8 {
			shaper.SetLink(degraded)
		} else if i%16 == 0 {
			shaper.SetLink(good)
		}
		if _, err := rt.Classify(x); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rep := rt.Report()
	b.ReportMetric(float64(n*b.N)/b.Elapsed().Seconds(), "images/s")
	b.ReportMetric(float64(client.BytesSent()-warmupBytes)/float64(b.N), "upload-B/op")
	b.ReportMetric(float64(rep.RepFlips), "rep-flips")
}

// BenchmarkFleetOffload measures the multi-edge fleet scenario: N concurrent
// edge runtimes against one slow serialized-accelerator cloud server, with
// and without admission control (cloud.ShedPolicy). Each op is one whole
// fleet run (dial, classify, close). Reported per op: aggregate images/s and
// sheds/op — the shedding sub-benchmark trades shed instances (served at the
// edge instead) for strictly less time queued behind the saturated server.
func BenchmarkFleetOffload(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	backbone, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "fleetbench", InChannels: 3, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{2, 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	m, err := core.BuildMEANetA(rng, backbone, 1, 8)
	if err != nil {
		b.Fatal(err)
	}
	cloudBackbone, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "fleetbenchcloud", InChannels: 3, StemChannels: 8,
		Channels: []int{8, 16}, Blocks: []int{1, 1}, Strides: []int{1, 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	cloudModel := models.NewClassifier(rng, cloudBackbone, 8)

	const edges, batches, batchSize = 4, 3, 16
	x := tensor.Randn(rng, 1, batchSize, 3, 16, 16)
	cost := &edge.CostParams{
		Compute:    energy.EdgeGPUCIFAR(),
		WiFi:       energy.DefaultWiFi(),
		ImageBytes: 4 * 3 * 16 * 16,
	}
	run := func(b *testing.B, opts ...cloud.Option) {
		b.Helper()
		srv, err := cloud.NewServer(&fleet.SlowModel{Inner: cloudModel, Delay: 2 * time.Millisecond}, nil, opts...)
		if err != nil {
			b.Fatal(err)
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := fleet.Run(fleet.Config{
				Addr:    srv.Addr().String(),
				Edges:   edges,
				Batches: batches,
				Net:     m,
				Policy:  core.Policy{Threshold: 0, UseCloud: true, CloudRetries: 1},
				Cost:    cost,
				Input:   x,
			})
			if err != nil {
				b.Fatal(err)
			}
			if res.Instances != edges*batches*batchSize {
				b.Fatalf("fleet classified %d instances, fed %d", res.Instances, edges*batches*batchSize)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(edges*batches*batchSize*b.N)/b.Elapsed().Seconds(), "images/s")
		b.ReportMetric(float64(srv.Stats().Sheds)/float64(b.N), "sheds/op")
	}
	b.Run("park-all", func(b *testing.B) { run(b) })
	b.Run("shedding", func(b *testing.B) {
		run(b, cloud.WithShedding(cloud.ShedPolicy{MaxInFlight: 2, RetryAfter: 10 * time.Millisecond}))
	})
}

// BenchmarkFleetWeighted measures heterogeneous-fleet routing over
// co-located replicas: concurrent workers share one edge.MultiClient across
// 2 fast + 1 slow (6×) serialized accelerators, with uniform p2c vs the
// learned service-time weighting. In-process replicas expose no link RTT or
// load signal, so the weight is the only thing separating the straggler.
// Each op is one whole run — fresh replicas and a fresh router, so the
// weighted rows re-learn the straggler from scratch every time. Reported:
// aggregate images/s and the straggler's share of answered round trips.
func BenchmarkFleetWeighted(b *testing.B) {
	const workers, batchSize, batches = 4, 8, 6
	const fastDelay, slowDelay = 2 * time.Millisecond, 12 * time.Millisecond
	imgs := make([]*tensor.Tensor, batchSize)
	for i := range imgs {
		imgs[i] = tensor.New(3, 8, 8)
	}
	run := func(b *testing.B, uniform bool) {
		b.Helper()
		var slowCalls, totalCalls uint64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clients := make([]edge.CloudClient, 3)
			for r, d := range []time.Duration{fastDelay, fastDelay, slowDelay} {
				clients[r] = &edge.InProcClient{
					Model: &fleet.SlowModel{Inner: fleet.FlatModel{Classes: 10}, Delay: d},
				}
			}
			mc, err := edge.NewMultiClient(clients,
				[]string{"inproc://fast-0", "inproc://fast-1", "inproc://slow"},
				edge.MultiConfig{Seed: int64(i + 1), DisableServiceWeight: uniform})
			if err != nil {
				b.Fatal(err)
			}
			var wg sync.WaitGroup
			var firstErr atomic.Value
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for j := 0; j < batches; j++ {
						if _, _, err := mc.ClassifyBatch(imgs); err != nil {
							firstErr.CompareAndSwap(nil, err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if err, ok := firstErr.Load().(error); ok {
				b.Fatal(err)
			}
			for _, st := range mc.ReplicaStats() {
				totalCalls += st.Offloads
				if st.Addr == "inproc://slow" {
					slowCalls += st.Offloads
				}
			}
			mc.Close()
		}
		b.StopTimer()
		b.ReportMetric(float64(workers*batches*batchSize*b.N)/b.Elapsed().Seconds(), "images/s")
		if totalCalls > 0 {
			b.ReportMetric(100*float64(slowCalls)/float64(totalCalls), "slow-share-%")
		}
	}
	b.Run("uniform", func(b *testing.B) { run(b, true) })
	b.Run("weighted", func(b *testing.B) { run(b, false) })
}

// BenchmarkPipelinePartition measures the multi-hop relay path end to end:
// a serving chain cut by the placement solver into a 3-hop pipeline (edge
// stage → two TCP stage servers behind shaped links) against the direct
// edge→cloud raw offload of the whole chain. Stages are zero-cpu shape
// stands with serialized solver-derived delays, so the images/s gap between
// the subs is the pipelining headroom the solver predicted, not host noise.
// Each op drives one fixed open-loop load through a persistent chain.
func BenchmarkPipelinePartition(b *testing.B) {
	const chainCompute = 4 * time.Millisecond
	const workers, total, classes = 8, 32, 5
	rng := rand.New(rand.NewSource(71))
	backbone, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "benchchain", InChannels: 3, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{1, 2},
	})
	if err != nil {
		b.Fatal(err)
	}
	cls := models.NewClassifier(rng, backbone, classes)
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	in := profile.Shape{C: 3, H: 12, W: 12}
	probe, err := profile.LocalPlacement(chain, in, profile.Device{Name: "probe", MACsPerSec: 1})
	if err != nil {
		b.Fatal(err)
	}
	rate := float64(probe.Stages[0].Cost.MACs) / chainCompute.Seconds()
	devices := []profile.Device{
		{Name: "edge", MACsPerSec: rate},
		{Name: "hop1", MACsPerSec: rate},
		{Name: "hop2", MACsPerSec: rate},
	}
	uplink := netsim.Link{Latency: time.Millisecond, Mbps: 20}
	interlink := netsim.Link{Latency: 500 * time.Microsecond, Mbps: 200}
	pipe, err := profile.PlacePipeline(chain, in, devices, []netsim.Link{uplink, interlink})
	if err != nil {
		b.Fatal(err)
	}
	img := tensor.Randn(rng, 1, in.C, in.H, in.W)
	stage := func(i int) fleet.StageSpec {
		st := pipe.Stages[i]
		return fleet.StageSpec{
			Delay: time.Duration(st.ComputeSec * float64(time.Second)),
			Dims:  []int{st.Out.C, st.Out.H, st.Out.W},
		}
	}

	// measure serves a synthetic chain from one hop per cloud cut (the first
	// behind the uplink, the second behind the interlink).
	measure := func(b *testing.B, chain []nn.Layer, cuts ...core.CutPoint) {
		b.Helper()
		hops := make([]fleet.ChainHop, len(cuts))
		for i := range hops {
			hops[i] = fleet.ChainHop{Chain: chain, Link: interlink}
		}
		ch, err := fleet.StartChain(hops)
		if err != nil {
			b.Fatal(err)
		}
		defer ch.Close()
		client, err := ch.Dial(edge.DialConfig{Link: uplink}, edge.ChainConfig{Chain: chain, Cuts: cuts})
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fleet.RunChainLoad(client, img, workers, total); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "images/s")
	}

	b.Run("direct", func(b *testing.B) {
		measure(b, fleet.SyntheticChain(fleet.StageSpec{Delay: chainCompute, Dims: []int{classes}}), 0)
	})
	b.Run("pipeline3", func(b *testing.B) {
		terminal := stage(2)
		terminal.Dims = []int{classes}
		measure(b, fleet.SyntheticChain(stage(0), stage(1), terminal), 1, 2)
	})
}

// BenchmarkChainFailover measures the chain's degraded mode next to its
// healthy path: the same 2-hop stage pipeline (zero-cpu shape stands with
// serialized delays, the edge shipping raw input) with a direct monolithic
// fallback replica armed. The healthy sub never touches the fallback; the
// failover sub kills the terminal hop before the load, so every batch pays a
// failed relay attempt and then the direct round trip — the images/s gap is
// the price of degraded mode, and the sub regressing is what bench-compare
// gates on.
func BenchmarkChainFailover(b *testing.B) {
	const hopCompute = 2 * time.Millisecond
	const workers, total, classes = 8, 32, 5
	rng := rand.New(rand.NewSource(73))
	img := tensor.Randn(rng, 1, 3, 12, 12)
	uplink := netsim.Link{Latency: time.Millisecond, Mbps: 20}
	interlink := netsim.Link{Latency: 500 * time.Microsecond, Mbps: 200}

	measure := func(b *testing.B, killTerminal bool) {
		b.Helper()
		chain := fleet.SyntheticChain(
			fleet.StageSpec{Delay: hopCompute, Dims: []int{4, 6, 6}},
			fleet.StageSpec{Delay: hopCompute, Dims: []int{classes}},
		)
		ch, err := fleet.StartChain([]fleet.ChainHop{{Chain: chain, Link: interlink}, {Chain: chain}})
		if err != nil {
			b.Fatal(err)
		}
		defer ch.Close()
		// The fallback replica serves the WHOLE chain's compute per batch —
		// a failover is never cheaper than the pipeline it replaces.
		direct, err := cloud.NewServer(&fleet.SlowModel{Inner: fleet.FlatModel{Classes: classes}, Delay: 2 * hopCompute}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if err := direct.Listen("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		defer direct.Close()
		dc, err := edge.DialCloud(direct.Addr().String(), edge.DialConfig{Link: uplink})
		if err != nil {
			b.Fatal(err)
		}
		defer dc.Close()
		client, err := ch.Dial(edge.DialConfig{Link: uplink}, edge.ChainConfig{Chain: chain, Cuts: []core.CutPoint{0, 1}, Direct: dc})
		if err != nil {
			b.Fatal(err)
		}
		defer client.Close()
		if killTerminal {
			ch.Servers[1].Close()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fleet.RunChainLoad(client, img, workers, total); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(total*b.N)/b.Elapsed().Seconds(), "images/s")
		st := client.ChainStats()
		if killTerminal && st.FallbackInstances == 0 {
			b.Fatal("terminal hop dead but no batch took the direct fallback")
		}
		if !killTerminal && st.FallbackInstances != 0 {
			b.Fatalf("healthy chain used the fallback for %d instances", st.FallbackInstances)
		}
	}

	b.Run("healthy", func(b *testing.B) { measure(b, false) })
	b.Run("failover", func(b *testing.B) { measure(b, true) })
}

func BenchmarkProtocolTensorRoundTrip(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.Randn(rng, 1, 3, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc := protocol.EncodeTensor(x)
		if _, err := protocol.DecodeTensor(enc); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(3 * 32 * 32 * 4))
}

func BenchmarkSyntheticGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := data.SynthC100(data.ScaleTiny, int64(i+1))
		if _, err := data.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

var sinkStr string

func BenchmarkRenderTables(b *testing.B) {
	ctx := benchContext(b)
	r, err := experiments.TableVI(ctx)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkStr = fmt.Sprint(r)
	}
}
