package experiments

// The fleet-replicas experiment measures horizontal cloud scaling: the same
// edge fleet offloads everything (threshold 0) against 1, 2 and 4 cloud
// replicas, each a fresh server whose serialized accelerator forward takes
// replicaCloudDelay — so the cloud tier is the bottleneck by construction
// and aggregate throughput is bounded by replicas/delay. With
// edge.MultiClient routing by power-of-two-choices over piggybacked load ×
// link RTT, adding replicas should scale images/s near-linearly until the
// edges themselves become the bottleneck, and the per-replica books should
// show the load actually spreading instead of pinning to one replica.
//
// The replicas serve a ZERO-cpu stand-in model (fleet.FlatModel): their
// entire per-forward cost is the modeled delay. A real forward would put every
// replica in contention for the same host cores — on a small CI machine the
// replicas then scale the modeled accelerator but not the measured wall
// clock, and the experiment would report core contention instead of routing.

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/netsim/fleet"
)

// replicaCloudDelay is the modeled per-forward accelerator time of one
// replica: large against everything else in the loop (edge forwards, wire,
// framing), so the replica count is what bounds aggregate throughput.
const replicaCloudDelay = 80 * time.Millisecond

// FleetReplicasRow is one replica-count measurement.
type FleetReplicasRow struct {
	Replicas     int
	ImagesPerSec float64
	Speedup      float64 // vs the 1-replica row
	Beta         float64 // cloud-served fraction
	// Offloads are the per-replica answered round trips (the routing
	// balance), index r = replica r.
	Offloads []uint64
}

// Balance is the min/max ratio of per-replica offloads (1 = perfectly even,
// 0 = at least one replica starved).
func (r *FleetReplicasRow) Balance() float64 {
	if len(r.Offloads) == 0 {
		return 0
	}
	min, max := r.Offloads[0], r.Offloads[0]
	for _, o := range r.Offloads[1:] {
		if o < min {
			min = o
		}
		if o > max {
			max = o
		}
	}
	if max == 0 {
		return 0
	}
	return float64(min) / float64(max)
}

// FleetReplicasResult is the replica-scaling table.
type FleetReplicasResult struct {
	System     SystemKey
	CloudDelay time.Duration
	Edges      int
	BatchSize  int
	Batches    int
	Rows       []FleetReplicasRow
}

// Row returns the measurement for a replica count.
func (r *FleetReplicasResult) Row(replicas int) (FleetReplicasRow, bool) {
	for _, row := range r.Rows {
		if row.Replicas == replicas {
			return row, true
		}
	}
	return FleetReplicasRow{}, false
}

// FleetReplicas measures the C100-B system's aggregate throughput at 1, 2
// and 4 cloud replicas on real TCP transports. Every replica count gets
// FRESH servers; the edges offload every instance (threshold 0) so the
// serialized accelerators, not the edge exits, bound throughput.
func FleetReplicas(ctx *Context) (*FleetReplicasResult, error) {
	sys, err := ctx.System(C100B)
	if err != nil {
		return nil, err
	}
	cost := &edge.CostParams{
		MainMACs:   sys.MainMACs(),
		ExtMACs:    sys.ExtMACs(),
		Compute:    sys.Compute,
		WiFi:       sys.WiFi,
		ImageBytes: sys.ImageBytes(),
	}
	// Many edges × few batches: the deep pool of concurrently in-flight
	// requests keeps every replica saturated through routing noise, which is
	// what lets the 2- and 4-replica runs approach the ideal delay bound.
	const edgesN, batchSize, batches = 8, 8, 3
	n := batchSize
	if n > sys.Synth.Test.N {
		n = sys.Synth.Test.N
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	input, _ := sys.Synth.Test.Batch(idx)

	res := &FleetReplicasResult{
		System:     sys.Key,
		CloudDelay: replicaCloudDelay,
		Edges:      edgesN,
		BatchSize:  n,
		Batches:    batches,
	}
	model := fleet.FlatModel{Classes: sys.Synth.Test.NumClasses}
	for _, replicas := range []int{1, 2, 4} {
		servers := make([]*cloud.Server, replicas)
		addrs := make([]string, replicas)
		for r := range servers {
			srv, err := cloud.NewServer(&fleet.SlowModel{Inner: model, Delay: replicaCloudDelay}, nil)
			if err != nil {
				return nil, err
			}
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				return nil, err
			}
			servers[r] = srv
			addrs[r] = srv.Addr().String()
		}
		run, err := fleet.Run(fleet.Config{
			Addrs:   addrs,
			Edges:   edgesN,
			Batches: batches,
			Net:     sys.Edge,
			Policy:  core.Policy{Threshold: 0, UseCloud: true, CloudRetries: 1},
			Cost:    cost,
			Input:   input,
		})
		for _, srv := range servers {
			srv.Close()
		}
		if err != nil {
			return nil, fmt.Errorf("experiments: fleet %d replicas: %w", replicas, err)
		}
		row := FleetReplicasRow{
			Replicas:     replicas,
			ImagesPerSec: run.ImagesPerSec,
			Beta:         run.CloudFraction(),
		}
		if replicas == 1 {
			// Single-replica runs bypass the router; the one server carries
			// every cloud round trip by definition.
			row.Offloads = []uint64{uint64(run.CloudServed)}
		} else {
			for _, rt := range run.Replicas {
				row.Offloads = append(row.Offloads, rt.Offloads)
			}
		}
		if base, ok := res.Row(1); ok && base.ImagesPerSec > 0 {
			row.Speedup = row.ImagesPerSec / base.ImagesPerSec
		} else if replicas == 1 {
			row.Speedup = 1
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the table.
func (r *FleetReplicasResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fleet replica scaling (%s, %v serialized cloud forward, %d edges × %d×%d-image batches, threshold 0)\n",
		r.System, r.CloudDelay, r.Edges, r.Batches, r.BatchSize)
	w := tabwriter.NewWriter(&sb, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "replicas\timages/s\tspeedup\tbeta\tbalance\toffloads per replica")
	for _, row := range r.Rows {
		offs := make([]string, len(row.Offloads))
		for i, o := range row.Offloads {
			offs[i] = fmt.Sprintf("%d", o)
		}
		fmt.Fprintf(w, "%d\t%.0f\t%.2f×\t%.1f%%\t%.2f\t%s\n",
			row.Replicas, row.ImagesPerSec, row.Speedup, 100*row.Beta,
			row.Balance(), strings.Join(offs, "/"))
	}
	w.Flush()
	sb.WriteString("each replica is a fresh serialized accelerator; the edges route every batch by\n")
	sb.WriteString("power-of-two-choices over piggybacked queue depth × link RTT (edge.MultiClient)\n")
	return sb.String()
}
