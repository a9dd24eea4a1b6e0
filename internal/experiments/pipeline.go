package experiments

// The pipeline-partition experiment: take the trained C100-B system's full
// serving chain (main block + features tail), let the placement solver cut it
// across edge → hop1 → hop2 given a constrained uplink and per-device compute
// rates, then MEASURE the three deployments over real TCP with netsim-shaped
// links — all-edge, direct edge→cloud raw offload, and the solved 3-hop
// pipeline. Stage compute is modeled with serialized delays from the solver's
// own per-stage times and activations with shape-true zero-cpu stands
// (fleet.SlowStage + fleet.ShapeStage), so measured throughput reflects the
// placement physics rather than host-core contention; the solver's predicted
// images/s sits next to each measured row.

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/deploy"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/netsim/fleet"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/profile"
	"github.com/meanet/meanet/internal/tensor"
)

// pipelineFullCompute is the modeled time of the WHOLE serving chain on one
// device; every device gets the rate that makes this true, so the scenario is
// three equal accelerators separated by links.
const pipelineFullCompute = 9 * time.Millisecond

// The scenario's links: a constrained uplink out of the edge, a fast
// interconnect between the two cloud hops.
var (
	pipelineUplink    = netsim.Link{Latency: time.Millisecond, Mbps: 7}
	pipelineInterlink = netsim.Link{Latency: 500 * time.Microsecond, Mbps: 200}
)

// PipelinePartitionRow is one measured deployment.
type PipelinePartitionRow struct {
	Config       string
	ImagesPerSec float64 // measured over real TCP
	PredictedPS  float64 // the solver's modeled throughput
}

// PipelinePartitionResult is the pipeline-partition comparison.
type PipelinePartitionResult struct {
	System    SystemKey
	ChainLen  int
	Placement profile.Placement // the solved 3-hop pipeline
	Workers   int
	Instances int
	Rows      []PipelinePartitionRow
}

// Row returns the measurement for a deployment name.
func (r *PipelinePartitionResult) Row(config string) (PipelinePartitionRow, bool) {
	for _, row := range r.Rows {
		if row.Config == config {
			return row, true
		}
	}
	return PipelinePartitionRow{}, false
}

// PipelinePartition solves and measures the 3-hop partitioning of the C100-B
// system against the all-edge and direct-offload baselines.
func PipelinePartition(ctx *Context) (*PipelinePartitionResult, error) {
	sys, err := ctx.System(C100B)
	if err != nil {
		return nil, err
	}
	tail, err := ctx.FeatureTail(sys)
	if err != nil {
		return nil, err
	}
	chain := deploy.ServingChain(sys.Edge, tail)
	classes := sys.Synth.Train.NumClasses

	probe, err := profile.LocalPlacement(chain, sys.InShape, profile.Device{Name: "probe", MACsPerSec: 1})
	if err != nil {
		return nil, err
	}
	rate := float64(probe.Stages[0].Cost.MACs) / pipelineFullCompute.Seconds()
	devices := []profile.Device{
		{Name: "edge", MACsPerSec: rate},
		{Name: "hop1", MACsPerSec: rate},
		{Name: "hop2", MACsPerSec: rate},
	}
	links := []netsim.Link{pipelineUplink, pipelineInterlink}

	pipe, err := profile.PlacePipeline(chain, sys.InShape, devices, links)
	if err != nil {
		return nil, err
	}
	localPred, err := profile.LocalPlacement(chain, sys.InShape, devices[0])
	if err != nil {
		return nil, err
	}
	directPred, err := profile.DirectPlacement(chain, sys.InShape, pipelineUplink, devices[0], devices[2])
	if err != nil {
		return nil, err
	}

	const workers, instances = 8, 50
	img := tensor.New(sys.InShape.C, sys.InShape.H, sys.InShape.W)
	res := &PipelinePartitionResult{
		System:    sys.Key,
		ChainLen:  len(chain),
		Placement: pipe,
		Workers:   workers,
		Instances: instances,
	}
	// stage models solved stage i on its own device, emitting its CHW output
	// (the last stage emits logits instead).
	stage := func(i int) fleet.StageSpec {
		st := pipe.Stages[i]
		return fleet.StageSpec{
			Delay: time.Duration(st.ComputeSec * float64(time.Second)),
			Dims:  []int{st.Out.C, st.Out.H, st.Out.W},
		}
	}
	terminal := stage(2)
	terminal.Dims = []int{classes}

	// All-edge: one serialized accelerator, no network.
	allEdge := &edge.InProcClient{Model: &fleet.SlowModel{Inner: fleet.FlatModel{Classes: classes}, Delay: pipelineFullCompute}}
	ps, err := fleet.RunChainLoad(allEdge, img, workers, instances)
	if err != nil {
		return nil, fmt.Errorf("experiments: all-edge run: %w", err)
	}
	res.Rows = append(res.Rows, PipelinePartitionRow{Config: "all-edge", ImagesPerSec: ps, PredictedPS: localPred.Throughput})

	// Direct: raw input over the uplink to one terminal hop running the whole
	// chain — today's -offload raw, restated as a 1-hop relay chain cut at 0.
	direct := fleet.SyntheticChain(fleet.StageSpec{Delay: pipelineFullCompute, Dims: []int{classes}})
	ps, err = measureChain(direct, []core.CutPoint{0}, img, workers, instances)
	if err != nil {
		return nil, fmt.Errorf("experiments: direct run: %w", err)
	}
	res.Rows = append(res.Rows, PipelinePartitionRow{Config: "direct", ImagesPerSec: ps, PredictedPS: directPred.Throughput})

	// Pipeline: the solver's placement — stage 0 on the edge, stage 1 behind
	// the uplink, stage 2 behind the interlink.
	pipeline := fleet.SyntheticChain(stage(0), stage(1), terminal)
	ps, err = measureChain(pipeline, []core.CutPoint{1, 2}, img, workers, instances)
	if err != nil {
		return nil, fmt.Errorf("experiments: pipeline run: %w", err)
	}
	res.Rows = append(res.Rows, PipelinePartitionRow{Config: "pipeline3", ImagesPerSec: ps, PredictedPS: pipe.Throughput})
	return res, nil
}

// measureChain stands up one hop per cloud cut of a synthetic chain (the
// first behind the uplink, the rest behind the interlink), drives the load
// through a routed ChainClient, and tears the chain down.
func measureChain(chain []nn.Layer, cuts []core.CutPoint, img *tensor.Tensor, workers, instances int) (float64, error) {
	hops := make([]fleet.ChainHop, len(cuts))
	for i := range hops {
		hops[i] = fleet.ChainHop{Chain: chain, Link: pipelineInterlink}
	}
	ch, err := fleet.StartChain(hops)
	if err != nil {
		return 0, err
	}
	defer ch.Close()
	client, err := ch.Dial(edge.DialConfig{Link: pipelineUplink}, edge.ChainConfig{Chain: chain, Cuts: cuts})
	if err != nil {
		return 0, err
	}
	defer client.Close()
	return fleet.RunChainLoad(client, img, workers, instances)
}

// String renders the comparison.
func (r *PipelinePartitionResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Multi-hop pipeline partitioning (%s, %d-unit serving chain, %v full-chain compute per device,\n",
		r.System, r.ChainLen, pipelineFullCompute)
	fmt.Fprintf(&sb, "uplink %.0f Mbps @ %v, interlink %.0f Mbps @ %v, %d workers × %d instances)\n",
		pipelineUplink.Mbps, pipelineUplink.Latency, pipelineInterlink.Mbps, pipelineInterlink.Latency,
		r.Workers, r.Instances)
	w := tabwriter.NewWriter(&sb, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "config\timages/s\tpredicted")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\n", row.Config, row.ImagesPerSec, row.PredictedPS)
	}
	w.Flush()
	fmt.Fprintf(&sb, "solver cuts %v (bottleneck: %s); stage plan:\n", r.Placement.Cuts, r.Placement.Bottleneck)
	w = tabwriter.NewWriter(&sb, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "stage\tdevice\tunits\tMMACs\tcompute\ttransfer\twire bytes")
	for i, st := range r.Placement.Stages {
		fmt.Fprintf(w, "%d\t%s\t[%d,%d)\t%.2f\t%.1fms\t%.1fms\t%d\n",
			i, st.Device, st.From, st.To, float64(st.Cost.MACs)/1e6,
			1000*st.ComputeSec, 1000*st.TransferSec, st.WireBytes)
	}
	w.Flush()
	sb.WriteString("stages are the solver's throughput-maximizing cut chain; the pipeline row must beat\n")
	sb.WriteString("both baselines whenever the bottleneck device or link is relieved by the split\n")
	return sb.String()
}
