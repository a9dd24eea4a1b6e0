package experiments

// The fleet-weighted experiment measures heterogeneous-fleet routing where
// capacity has to be LEARNED: a pool of concurrent edge workers shares one
// edge.MultiClient over three co-located in-process replicas — two fast, one
// 6× slower (a straggler accelerator) — first with the capacity weighting
// disabled, then with the default service-time EWMA weighting on. In-process
// replicas carry no wire, so there is no link-RTT estimate and no
// piggybacked queue depth: over TCP those signals already encode much of a
// replica's speed (a straggler's round trips measure slow), but co-located
// replicas give uniform power-of-two-choices nothing to tell a straggler by,
// and it spreads round trips evenly while the 6×-slower replica serializes a
// growing queue. The weighted row's win is exactly the value of the learned
// capacity weight: after a handful of samples the straggler's share of round
// trips collapses and aggregate images/s recovers toward the fast pair's
// capacity. Nothing tells the router which replica is slow — the weight
// comes from observed (queue-normalized) service times alone.
//
// Like fleet-replicas, the replicas serve the zero-cpu fleet.FlatModel so
// their entire per-forward cost is the modeled serialized delay
// (fleet.SlowModel): the rows compare routing policies, not host-core
// contention.

import (
	"fmt"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/netsim/fleet"
	"github.com/meanet/meanet/internal/tensor"
)

// weightedFastDelay and weightedSlowDelay are the modeled per-forward
// accelerator times of the fast pair and the straggler.
const (
	weightedFastDelay = 10 * time.Millisecond
	weightedSlowDelay = 60 * time.Millisecond
)

// FleetWeightedRow is one routing-policy measurement over the 2-fast+1-slow
// fleet.
type FleetWeightedRow struct {
	Policy       string // "uniform" or "weighted"
	ImagesPerSec float64
	// Offloads are the answered round trips per replica, index r = replica
	// r; the slow replica is LAST.
	Offloads []uint64
}

// SlowShare is the fraction of answered round trips that landed on the slow
// replica.
func (r *FleetWeightedRow) SlowShare() float64 {
	var total uint64
	for _, o := range r.Offloads {
		total += o
	}
	if total == 0 {
		return 0
	}
	return float64(r.Offloads[len(r.Offloads)-1]) / float64(total)
}

// FleetWeightedResult is the uniform-vs-weighted routing table.
type FleetWeightedResult struct {
	FastDelay time.Duration
	SlowDelay time.Duration
	Workers   int
	BatchSize int
	Batches   int
	Rows      []FleetWeightedRow
}

// Row returns the measurement for a routing policy.
func (r *FleetWeightedResult) Row(policy string) (FleetWeightedRow, bool) {
	for _, row := range r.Rows {
		if row.Policy == policy {
			return row, true
		}
	}
	return FleetWeightedRow{}, false
}

// FleetWeighted measures aggregate throughput over a 2-fast+1-slow
// co-located replica fleet, uniform p2c vs the default service-time-weighted
// p2c. Every row gets FRESH replicas and a fresh router — the weighted row
// starts with no capacity knowledge and must earn its weights from its own
// round trips mid-run.
func FleetWeighted(ctx *Context) (*FleetWeightedResult, error) {
	const workers, batchSize, batches = 8, 8, 15
	const classes = 10

	imgs := make([]*tensor.Tensor, batchSize)
	for i := range imgs {
		imgs[i] = tensor.New(3, 8, 8)
	}
	res := &FleetWeightedResult{
		FastDelay: weightedFastDelay,
		SlowDelay: weightedSlowDelay,
		Workers:   workers,
		BatchSize: batchSize,
		Batches:   batches,
	}
	delays := []time.Duration{weightedFastDelay, weightedFastDelay, weightedSlowDelay}
	addrs := []string{"inproc://fast-0", "inproc://fast-1", "inproc://slow"}
	for _, policy := range []string{"uniform", "weighted"} {
		clients := make([]edge.CloudClient, len(delays))
		for r := range clients {
			clients[r] = &edge.InProcClient{
				Model: &fleet.SlowModel{Inner: fleet.FlatModel{Classes: classes}, Delay: delays[r]},
			}
		}
		mc, err := edge.NewMultiClient(clients, addrs,
			edge.MultiConfig{Seed: 1, DisableServiceWeight: policy == "uniform"})
		if err != nil {
			return nil, err
		}
		var wg sync.WaitGroup
		errs := make([]error, workers)
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for b := 0; b < batches; b++ {
					if _, _, err := mc.ClassifyBatch(imgs); err != nil {
						errs[w] = fmt.Errorf("worker %d batch %d: %w", w, b, err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		elapsed := time.Since(start)
		row := FleetWeightedRow{Policy: policy}
		// ReplicaStats keeps config order, so the slow replica stays last.
		for _, st := range mc.ReplicaStats() {
			row.Offloads = append(row.Offloads, st.Offloads)
		}
		if err := mc.Close(); err != nil {
			return nil, err
		}
		for _, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("experiments: fleet %s routing: %w", policy, err)
			}
		}
		if secs := elapsed.Seconds(); secs > 0 {
			row.ImagesPerSec = float64(workers*batches*batchSize) / secs
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the table.
func (r *FleetWeightedResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fleet weighted routing (2×%v + 1×%v serialized co-located replicas, %d workers × %d×%d-image batches)\n",
		r.FastDelay, r.SlowDelay, r.Workers, r.Batches, r.BatchSize)
	w := tabwriter.NewWriter(&sb, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "routing\timages/s\tslow share\toffloads per replica (slow last)")
	for _, row := range r.Rows {
		offs := make([]string, len(row.Offloads))
		for i, o := range row.Offloads {
			offs[i] = fmt.Sprintf("%d", o)
		}
		fmt.Fprintf(w, "%s\t%.0f\t%.1f%%\t%s\n",
			row.Policy, row.ImagesPerSec, 100*row.SlowShare(), strings.Join(offs, "/"))
	}
	w.Flush()
	sb.WriteString("weighted = p2c score × per-replica service-time EWMA ratio, learned online from\n")
	sb.WriteString("observed round trips (edge.MultiConfig defaults); uniform = the same p2c with\n")
	sb.WriteString("DisableServiceWeight. In-process replicas expose no link RTT or load signal,\n")
	sb.WriteString("so the learned weight is the only thing separating the straggler\n")
	return sb.String()
}
