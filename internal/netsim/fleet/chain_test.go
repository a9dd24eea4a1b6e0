package fleet_test

// The multi-hop acceptance scenario: a 3-hop pipeline placed by the cost-model
// solver, running over shaped loopback links with zero-cpu delay-modeled
// stages, must out-throughput BOTH baselines — all-edge and direct edge→cloud
// offload — exactly as the solver predicts. Compute is modeled with serialized
// sleeps and activations with ShapeStage, so the measurement reflects the
// scenario's physics (per-hop accelerators + link budgets), not host-core
// contention, and stays stable under -race.

import (
	"math/rand"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/netsim/fleet"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/profile"
	"github.com/meanet/meanet/internal/tensor"
)

// fullCompute is the modeled whole-chain forward time on one device. Large
// against frame handling and goroutine scheduling so the ordering under test
// is decided by the scenario's physics.
const fullCompute = 12 * time.Millisecond

func TestPipelineOutThroughputsBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	b, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "chainaccept", InChannels: 3, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	cls := models.NewClassifier(rng, b, 5)
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	in := profile.Shape{C: 3, H: 12, W: 12}

	// Per-device rate: the whole chain takes fullCompute on one device.
	local1, err := profile.LocalPlacement(chain, in, profile.Device{Name: "probe", MACsPerSec: 1})
	if err != nil {
		t.Fatal(err)
	}
	totalMACs := local1.Stages[0].Cost.MACs
	rate := float64(totalMACs) / fullCompute.Seconds()
	devices := []profile.Device{
		{Name: "edge", MACsPerSec: rate},
		{Name: "hop1", MACsPerSec: rate},
		{Name: "hop2", MACsPerSec: rate},
	}
	uplink := netsim.Link{Latency: 2 * time.Millisecond, Mbps: 5}
	interlink := netsim.Link{Latency: 500 * time.Microsecond, Mbps: 200}
	links := []netsim.Link{uplink, interlink}

	pipe, err := profile.PlacePipeline(chain, in, devices, links)
	if err != nil {
		t.Fatal(err)
	}
	localPred, err := profile.LocalPlacement(chain, in, devices[0])
	if err != nil {
		t.Fatal(err)
	}
	directPred, err := profile.DirectPlacement(chain, in, uplink, devices[0], devices[2])
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Throughput <= localPred.Throughput || pipe.Throughput <= directPred.Throughput {
		t.Fatalf("solver does not predict a pipeline win: pipe %.1f, local %.1f, direct %.1f",
			pipe.Throughput, localPred.Throughput, directPred.Throughput)
	}

	const workers, total, classes = 8, 50, 5
	img := tensor.Randn(rng, 1, in.C, in.H, in.W)
	stage := func(i int) fleet.StageSpec {
		st := pipe.Stages[i]
		return fleet.StageSpec{
			Delay: time.Duration(st.ComputeSec * float64(time.Second)),
			Dims:  []int{st.Out.C, st.Out.H, st.Out.W},
		}
	}
	// measure stands up one hop per cloud cut (the first behind the uplink,
	// the second behind the interlink) and drives the load through a routed
	// client.
	measure := func(chain []nn.Layer, cuts ...core.CutPoint) float64 {
		t.Helper()
		hops := make([]fleet.ChainHop, len(cuts))
		for i := range hops {
			hops[i] = fleet.ChainHop{Chain: chain, Link: interlink}
		}
		ch, err := fleet.StartChain(hops)
		if err != nil {
			t.Fatal(err)
		}
		defer ch.Close()
		client, err := ch.Dial(edge.DialConfig{Link: uplink}, edge.ChainConfig{Chain: chain, Cuts: cuts})
		if err != nil {
			t.Fatal(err)
		}
		defer client.Close()
		rate, err := fleet.RunChainLoad(client, img, workers, total)
		if err != nil {
			t.Fatal(err)
		}
		return rate
	}

	// All-edge: one serialized accelerator runs the whole chain in-process.
	allEdge := &edge.InProcClient{Model: &fleet.SlowModel{Inner: fleet.FlatModel{Classes: classes}, Delay: fullCompute}}
	measuredLocal, err := fleet.RunChainLoad(allEdge, img, workers, total)
	if err != nil {
		t.Fatal(err)
	}

	// Direct: raw input over the constrained uplink to a single terminal hop
	// running the whole chain (cut at 0: no local stage).
	measuredDirect := measure(fleet.SyntheticChain(fleet.StageSpec{Delay: fullCompute, Dims: []int{classes}}), 0)

	// Pipeline: the solver's 3-stage placement — stage 0 on the edge, stage 1
	// behind the uplink, stage 2 behind the interlink.
	terminal := stage(2)
	terminal.Dims = []int{classes}
	measuredPipe := measure(fleet.SyntheticChain(stage(0), stage(1), terminal), 1, 2)

	t.Logf("predicted img/s: pipe %.1f local %.1f direct %.1f; measured: pipe %.1f local %.1f direct %.1f (cuts %v, bottleneck %s)",
		pipe.Throughput, localPred.Throughput, directPred.Throughput,
		measuredPipe, measuredLocal, measuredDirect, pipe.Cuts, pipe.Bottleneck)

	// The acceptance criterion: the measured pipeline STRICTLY exceeds both
	// measured baselines, with margin so scheduler noise cannot fake a pass.
	if measuredPipe <= 1.2*measuredLocal {
		t.Fatalf("pipeline %.1f img/s does not beat all-edge %.1f", measuredPipe, measuredLocal)
	}
	if measuredPipe <= 1.2*measuredDirect {
		t.Fatalf("pipeline %.1f img/s does not beat direct offload %.1f", measuredPipe, measuredDirect)
	}
}

func TestStartChainValidation(t *testing.T) {
	if _, err := fleet.StartChain(nil); err == nil {
		t.Fatal("empty chain accepted")
	}
}

func TestRunChainLoadValidation(t *testing.T) {
	client := &edge.InProcClient{Model: fleet.FlatModel{Classes: 2}}
	img := tensor.New(3, 4, 4)
	if _, err := fleet.RunChainLoad(client, img, 0, 1); err == nil {
		t.Fatal("zero workers accepted")
	}
	if _, err := fleet.RunChainLoad(client, img, 1, 0); err == nil {
		t.Fatal("zero instances accepted")
	}
	rate, err := fleet.RunChainLoad(client, img, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if rate <= 0 {
		t.Fatalf("nonpositive throughput %v", rate)
	}
}
