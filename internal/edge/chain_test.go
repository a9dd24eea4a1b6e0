package edge_test

// End-to-end tests of the multi-hop chain client over real TCP: a partitioned
// chain answers bitwise like the monolithic model, a server without a serving
// chain answers relay frames with MsgError and the client survives (the
// MsgHello legacy pattern), and the chain surfaces transport-level accounting.

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/netsim/fleet"
	"github.com/meanet/meanet/internal/tensor"
)

func TestChainClientMatchesInProc(t *testing.T) {
	cls := buildCloudModel(t, 61)
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	if len(chain) < 4 {
		t.Fatalf("chain too short: %d", len(chain))
	}
	cuts := []core.CutPoint{core.CutPoint(len(chain) / 3), core.CutPoint(2 * len(chain) / 3)}
	ch, err := fleet.StartChain([]fleet.ChainHop{{Chain: chain}, {Chain: chain}})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	client, err := ch.Dial(edge.DialConfig{}, edge.ChainConfig{Chain: chain, Cuts: cuts})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(62))
	imgs := make([]*tensor.Tensor, 5)
	for i := range imgs {
		imgs[i] = tensor.Randn(rng, 1, 3, 8, 8)
	}
	preds, confs, err := client.ClassifyBatch(imgs)
	if err != nil {
		t.Fatal(err)
	}
	inproc := &edge.InProcClient{Model: cls}
	wantPreds, wantConfs, err := inproc.ClassifyBatch(imgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range imgs {
		if preds[i] != wantPreds[i] {
			t.Fatalf("img %d: chain pred %d, monolithic %d", i, preds[i], wantPreds[i])
		}
		if diff := confs[i] - wantConfs[i]; diff > 1e-6 || diff < -1e-6 {
			t.Fatalf("img %d: chain conf %v, monolithic %v", i, confs[i], wantConfs[i])
		}
	}

	// The single-image path goes through the same stacked fast path.
	pred, _, err := client.Classify(imgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if pred != wantPreds[0] {
		t.Fatalf("single-image pred %d, batch pred %d", pred, wantPreds[0])
	}
	if client.BytesSent() == 0 {
		t.Fatal("chain client reported zero wire bytes after classifying")
	}
	if est := client.LinkEstimate(); est.Samples == 0 {
		t.Fatal("relay round trips fed no link-estimator samples")
	}
}

// TestChainClientNoLocalStage: with the first cut at 0 the client runs no
// local stage and ships the RAW input to hop 0 — the placement solver's
// "edge runs nothing" case.
func TestChainClientNoLocalStage(t *testing.T) {
	cls := buildCloudModel(t, 63)
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	ch, err := fleet.StartChain([]fleet.ChainHop{{Chain: chain}})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	client, err := ch.Dial(edge.DialConfig{}, edge.ChainConfig{Chain: chain, Cuts: []core.CutPoint{0}})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(64))
	img := tensor.Randn(rng, 1, 3, 8, 8)
	pred, _, err := client.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	inproc := &edge.InProcClient{Model: cls}
	want, _, err := inproc.Classify(img)
	if err != nil {
		t.Fatal(err)
	}
	if pred != want {
		t.Fatalf("raw-shipping chain pred %d, monolithic %d", pred, want)
	}
}

// TestRelayLegacyServer pins the mixed-version contract, mirroring the
// MsgHello pattern: a server without a serving chain answers MsgRelayRoute
// with MsgError, the client surfaces it as an error, and the SAME connection
// keeps serving the frame types the server does know.
func TestRelayLegacyServer(t *testing.T) {
	cls := buildCloudModel(t, 65)
	srv, err := cloud.NewServer(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := edge.DialCloud(srv.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	rng := rand.New(rand.NewSource(66))
	batch := tensor.Randn(rng, 1, 2, 3, 8, 8)
	_, _, err = client.RelayRouted(batch, 0, nil)
	if err == nil || !strings.Contains(err.Error(), "stage mode not supported") {
		t.Fatalf("legacy server relay error: %v", err)
	}
	// The connection survives the rejected frame type.
	if _, _, err := client.Classify(tensor.Randn(rng, 1, 3, 8, 8)); err != nil {
		t.Fatalf("connection dead after legacy relay rejection: %v", err)
	}
}

func TestNewRoutedChainClientValidation(t *testing.T) {
	if _, err := edge.NewRoutedChainClient(nil, edge.ChainConfig{}); err == nil {
		t.Fatal("chain client without a transport accepted")
	}
	cls := buildCloudModel(t, 67)
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	ch, err := fleet.StartChain([]fleet.ChainHop{{Chain: chain}})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	for _, cuts := range [][]core.CutPoint{
		nil,                            // no cloud hop
		{2, 2},                         // not strictly increasing
		{0, 0},                         // a second cut at 0
		{core.CutPoint(len(chain))},    // past the chain
		{0, core.CutPoint(len(chain))}, // later cut past the chain
	} {
		if client, err := ch.Dial(edge.DialConfig{}, edge.ChainConfig{Chain: chain, Cuts: cuts}); err == nil {
			client.Close()
			t.Fatalf("cuts %v accepted", cuts)
		}
	}
}
