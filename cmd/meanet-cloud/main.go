// Command meanet-cloud runs the cloud AI server: it trains (or loads) the
// deep cloud CNN for a dataset preset and serves classify requests over TCP
// until interrupted.
//
// Usage:
//
//	meanet-cloud [-addr :9400] [-dataset c100|imagenet] [-scale tiny|small|full]
//	             [-seed N] [-epochs N] [-weights FILE] [-save FILE]
//	             [-batch N] [-linger DUR] [-tail] [-variant A|B]
//	             [-shed-queue N] [-shed-inflight N] [-shed-retry-after DUR]
//	             [-downstream host:port[,host:port...]]
//
// -batch enables server-side micro-batching: up to N concurrent classify
// requests (from any number of edge connections) are coalesced into one
// batched forward pass, waiting at most -linger (default 2ms) for the batch
// to fill. The collector covers raw-image requests and — when the server is
// built with a feature tail — partitioned-network feature requests, each in
// their own batches. Client-assembled batch frames (classify-batch and
// classify-features-batch), the edge runtime's default offload path, run as
// one forward pass either way. Predictions are bitwise identical to the
// unbatched path.
//
// -shed-queue and -shed-inflight enable admission control (load shedding):
// while the micro-batch collectors hold at least -shed-queue parked requests
// or at least -shed-inflight dispatches are in flight, classify requests are
// answered with a shed frame carrying the -shed-retry-after hint (default
// 50ms) instead of being parked — edges serve those instances themselves and
// hold further offloads for the hinted duration. Pings are never shed.
//
// -tail additionally serves the §III-C "sending features" mode: the command
// replays the edge's deterministic main-block pipeline (internal/deploy) for
// the given -variant, trains a small tail classifier over the resulting
// feature maps, and answers classify-features(-batch) requests with it. The
// edge can then offload feature tensors (-offload features|auto) instead of
// raw pixels.
//
// Every -tail server is also a hop of a multi-hop partitioned deployment: it
// holds the full serving chain (main block + tail, at unit granularity) and
// answers source-routed relay frames, running whatever span of the chain
// each frame's route assigns it. The cut points travel with the frame (the
// edge's meanet-edge -cuts), so no hop is configured with its position, and
// an edge running -replan moves cuts live without any hop being
// reconfigured. A server without -downstream is the terminal hop of every
// route that reaches it; -downstream makes it a forwarding hop. Predictions
// through the chain are bitwise identical to the monolithic partitioned
// model, and chain hops still serve raw and feature uploads, so a hop can
// double as an ordinary replica.
//
// -downstream (requires -tail) accepts a comma-separated failover list: the
// first address is the preferred next hop, the rest are tried in order when
// it fails or sheds, with exclusion windows so a dead replica is not
// re-dialed on every frame.
//
// The companion meanet-edge command, started with the same -dataset, -scale,
// -seed and -variant, generates the identical synthetic dataset and offloads
// its complex instances here.
//
// For a multi-replica cloud tier, start several meanet-cloud instances on
// distinct -addr ports (identical -dataset/-scale/-seed/-variant so every
// replica serves the same model) and hand the edge the full list:
// meanet-edge -cloud host:9400,host:9401. Each replica runs its own
// admission control; the edge routes around shed or dead replicas.
//
// On connect, the server answers the edge's MsgHello handshake with its
// capability frame: whether it serves the feature tail (-tail) and its
// micro-batch ceiling (-batch, 0 when unbatched). A heterogeneous fleet can
// therefore mix tail-equipped and raw-only replicas — edges skip tail-less
// replicas for feature uploads instead of failing. Replicas may also be
// added to or removed from a running edge (meanet-edge -admin) without
// restarting anything.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/deploy"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/models"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "meanet-cloud:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("meanet-cloud", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9400", "listen address")
	dataset := fs.String("dataset", "c100", "dataset preset: c100 or imagenet")
	scaleName := fs.String("scale", "small", "workload scale: tiny, small or full")
	seed := fs.Int64("seed", 1, "master random seed (must match the edge)")
	epochs := fs.Int("epochs", 0, "training epochs (0 = scale default)")
	weights := fs.String("weights", "", "load pretrained cloud weights instead of training")
	save := fs.String("save", "", "save trained weights to this file")
	batch := fs.Int("batch", 0, "micro-batch size (0 = no batching)")
	linger := fs.Duration("linger", 2*time.Millisecond, "max wait for a micro-batch to fill")
	tailMode := fs.Bool("tail", false, "serve the features mode: train a partitioned-network tail over the edge main block")
	variant := fs.String("variant", "A", "edge MEANet variant the tail partitions (must match the edge)")
	shedQueue := fs.Int64("shed-queue", 0, "shed classify requests while the collector queue holds at least this many (0 = off)")
	shedInflight := fs.Int64("shed-inflight", 0, "shed classify requests while at least this many dispatches are in flight (0 = off)")
	shedRetryAfter := fs.Duration("shed-retry-after", 0, "retry-after hint carried in shed frames (0 = default 50ms)")
	downstreamAddr := fs.String("downstream", "", "next chain hop address(es) for routed relay frames, comma-separated failover order (requires -tail)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *downstreamAddr != "" && !*tailMode {
		return fmt.Errorf("-downstream needs -tail: only a server holding the serving chain relays")
	}
	shed := cloud.ShedPolicy{MaxQueue: *shedQueue, MaxInFlight: *shedInflight, RetryAfter: *shedRetryAfter}
	if *shedQueue < 0 || *shedInflight < 0 {
		return fmt.Errorf("negative shed limits (%d queue, %d inflight)", *shedQueue, *shedInflight)
	}
	if *shedQueue > 0 && *batch <= 0 {
		return fmt.Errorf("-shed-queue needs -batch: only the micro-batch collectors have a queue")
	}
	scale, err := deploy.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	synth, err := deploy.GeneratePreset(*dataset, scale, *seed)
	if err != nil {
		return err
	}

	// Partitioned deployment: with -tail the server's raw model is the
	// composition tail∘main
	// of the replayed edge main block — raw and feature uploads answer
	// bitwise identically, which is what makes the edge's -offload auto a
	// pure communication trade. The standalone cloud CNN (and its
	// -weights/-save persistence) belongs to the non-partitioned deployment
	// only.
	if *tailMode {
		if *weights != "" || *save != "" {
			return fmt.Errorf("-weights/-save persist the standalone cloud CNN and are incompatible with -tail")
		}
		spec := deploy.EdgeSpec{
			Dataset: *dataset, Scale: scale, Seed: *seed, Variant: *variant,
			Epochs: deploy.DefaultEpochs(scale),
			Progress: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, "tail: "+format+"\n", args...)
			},
		}
		m, err := deploy.BuildEdgeNet(spec, synth.Train.NumClasses)
		if err != nil {
			return err
		}
		tm, err := deploy.TrainMain(spec, m, synth)
		if err != nil {
			return fmt.Errorf("replay edge main block: %w", err)
		}
		tail, err := deploy.TrainTail(m, tm.Train, *seed+900, defaultEpochs(scale), spec.Progress)
		if err != nil {
			return fmt.Errorf("train features tail: %w", err)
		}
		raw := cloud.Partitioned(m.Main, tail)
		acc, err := evalModel(raw, synth.Test)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "partitioned model test accuracy: %.2f%%\n", 100*acc)

		// Chain hop: the full serving chain, built exactly as the edge and
		// every other hop build it (same deterministic construction), serves
		// whatever span each routed frame assigns. More than one -downstream
		// address arms hop-local failover: the entries form an ordered set,
		// tried in order with exclusion windows, so the chain heals around
		// one dead next-hop replica without the edge noticing.
		cfg := cloud.StageConfig{Chain: deploy.ServingChain(m, tail)}
		downAddrs := edge.SplitAddrs(*downstreamAddr)
		for _, da := range downAddrs {
			down, err := edge.DialCloud(da, edge.DialConfig{})
			if err != nil {
				return fmt.Errorf("dial downstream %s: %w", da, err)
			}
			defer down.Close()
			cfg.Downstreams = append(cfg.Downstreams, down)
		}
		stageDesc := fmt.Sprintf("%d-unit chain hop", len(cfg.Chain))
		if len(downAddrs) > 0 {
			stageDesc += ", downstream " + strings.Join(downAddrs, ",")
		}
		return serve(raw, tail, *addr, *dataset, synth.Train.NumClasses, *batch, *linger, shed, stageDesc, cloud.WithStage(cfg))
	}

	rng := rand.New(rand.NewSource(*seed + 500))
	groups := 3
	if *dataset == "imagenet" {
		groups = 4
	}
	backbone, err := models.BuildResNet(rng, models.ResNetCloud(groups))
	if err != nil {
		return err
	}
	cls := models.NewClassifier(rng, backbone, synth.Train.NumClasses)

	if *weights != "" {
		f, err := os.Open(*weights)
		if err != nil {
			return fmt.Errorf("open weights: %w", err)
		}
		defer f.Close()
		if err := models.LoadWeights(f, cls.Backbone, cls.Exit); err != nil {
			return fmt.Errorf("load weights: %w", err)
		}
		fmt.Fprintf(os.Stderr, "loaded cloud weights from %s\n", *weights)
	} else {
		e := *epochs
		if e == 0 {
			e = defaultEpochs(scale)
		}
		cfg := core.DefaultTrainConfig(e, *seed+501)
		cfg.Progress = func(epoch int, loss float64) {
			fmt.Fprintf(os.Stderr, "cloud training epoch %d/%d loss %.4f\n", epoch+1, e, loss)
		}
		start := time.Now()
		if err := core.TrainClassifier(cls, synth.Train, cfg); err != nil {
			return fmt.Errorf("train cloud model: %w", err)
		}
		fmt.Fprintf(os.Stderr, "cloud model trained in %.1fs\n", time.Since(start).Seconds())
	}
	if *save != "" {
		f, err := os.Create(*save)
		if err != nil {
			return fmt.Errorf("create weights file: %w", err)
		}
		if err := models.SaveWeights(f, cls.Backbone, cls.Exit); err != nil {
			f.Close()
			return fmt.Errorf("save weights: %w", err)
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "saved cloud weights to %s\n", *save)
	}

	cm, err := core.EvaluateClassifier(cls, synth.Test, 64)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "cloud model test accuracy: %.2f%%\n", 100*cm.Accuracy())
	return serve(cls, nil, *addr, *dataset, synth.Train.NumClasses, *batch, *linger, shed, "")
}

// serve runs the TCP server until interrupted and prints shutdown stats.
// stageDesc describes the server's chain role ("" = not a stage hop); extra
// carries the stage option when set.
func serve(raw cloud.Model, tail *cloud.Tail, addr, dataset string, classes, batch int, linger time.Duration, shed cloud.ShedPolicy, stageDesc string, extra ...cloud.Option) error {
	opts := extra
	if batch > 0 {
		opts = append(opts, cloud.WithBatching(cloud.BatchConfig{MaxBatch: batch, Linger: linger}))
	}
	shedding := shed.MaxQueue > 0 || shed.MaxInFlight > 0
	if shedding {
		opts = append(opts, cloud.WithShedding(shed))
	}
	srv, err := cloud.NewServer(raw, tail, opts...)
	if err != nil {
		return err
	}
	if err := srv.Listen(addr); err != nil {
		return err
	}
	mode := "unbatched"
	if batch > 0 {
		mode = fmt.Sprintf("micro-batch %d, linger %v", batch, linger)
	}
	if tail != nil {
		mode += ", partitioned features tail"
	}
	if stageDesc != "" {
		mode += ", " + stageDesc
	}
	if shedding {
		mode += fmt.Sprintf(", shedding at queue %d / in-flight %d", shed.MaxQueue, shed.MaxInFlight)
	}
	fmt.Printf("cloud AI serving on %s (dataset %s, %d classes, %s)\n",
		srv.Addr(), dataset, classes, mode)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "shutting down")
	if err := srv.Close(); err != nil {
		return err
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "served %d requests (%d errors, %d conns, %d bytes in, %d out)\n",
		st.Requests, st.Errors, st.TotalConns, st.BytesIn, st.BytesOut)
	fmt.Fprintf(os.Stderr, "load at shutdown: %d in flight, %d queued (piggybacked to edges on every result)\n",
		st.InFlight, st.QueueDepth)
	if shedding {
		fmt.Fprintf(os.Stderr, "admission control: %d requests shed, %d instances served\n",
			st.Sheds, st.InstancesServed)
	}
	if st.Batches > 0 {
		fmt.Fprintf(os.Stderr, "micro-batching: %d requests over %d forwards (mean batch %.1f)\n",
			st.BatchedRequests, st.Batches, float64(st.BatchedRequests)/float64(st.Batches))
	}
	return nil
}

// evalModel measures top-1 accuracy of a serving model over a dataset.
func evalModel(m cloud.Model, ds *data.Dataset) (float64, error) {
	if ds.N == 0 {
		return 0, fmt.Errorf("empty test set")
	}
	correct := 0
	for start := 0; start < ds.N; start += 64 {
		end := start + 64
		if end > ds.N {
			end = ds.N
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		x, y := ds.Batch(idx)
		preds := m.Logits(x, false).ArgMaxRows()
		for i, p := range preds {
			if p == y[i] {
				correct++
			}
		}
	}
	return float64(correct) / float64(ds.N), nil
}

func defaultEpochs(scale data.Scale) int {
	switch scale {
	case data.ScaleTiny:
		return 6
	case data.ScaleFull:
		return 35
	default:
		return 22
	}
}
