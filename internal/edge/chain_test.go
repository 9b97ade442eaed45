package edge_test

// End-to-end tests of the multi-hop chain client over real TCP: a partitioned
// chain answers bitwise like the monolithic model, a pre-stage-mode server
// answers relay frames with MsgError and the client survives (the MsgHello
// legacy pattern), and the chain surfaces transport-level accounting.

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/netsim/fleet"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

func TestChainClientMatchesInProc(t *testing.T) {
	cls := buildCloudModel(t, 61)
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	if len(chain) < 4 {
		t.Fatalf("chain too short: %d", len(chain))
	}
	cuts := []core.CutPoint{
		core.CutPoint(len(chain) / 3), core.CutPoint(2 * len(chain) / 3),
	}
	ch, err := fleet.StartChain([]fleet.ChainHop{{Chain: chain}, {Chain: chain}})
	if err != nil {
		t.Fatal(err)
	}
	defer ch.Close()
	next, err := edge.DialCloud(ch.Addr(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	client, err := edge.NewRoutedChainClient(next, edge.ChainConfig{Chain: chain, Cuts: cuts})
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

// TestRelayLegacyServer pins the mixed-version contract, mirroring the
// MsgHello pattern: a server predating stage mode answers relay frames with
// MsgError, the client surfaces it as an error, and the SAME connection keeps
// serving the frame types the server does know.
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
	_, err = client.Infer(protocol.InferRequest{Rep: protocol.RepActivation, TTL: 3, Tensor: batch})
	if err == nil || !strings.Contains(err.Error(), "stage mode not supported") {
		t.Fatalf("legacy server relay error: %v", err)
	}
	// The connection survives the rejected frame type.
	if _, _, err := client.Classify(tensor.Randn(rng, 1, 3, 8, 8)); err != nil {
		t.Fatalf("connection dead after legacy relay rejection: %v", err)
	}
}

func TestNewRoutedChainClientValidation(t *testing.T) {
	cls := buildCloudModel(t, 67)
	chain := core.FlattenChain(cls.Backbone, cls.Exit)
	srv, err := cloud.NewServer(cls, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	next, err := edge.DialCloud(srv.Addr().String(), edge.DialConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	if _, err := edge.NewRoutedChainClient(nil, edge.ChainConfig{Chain: chain, Cuts: []core.CutPoint{1}}); err == nil {
		t.Fatal("chain client without a transport accepted")
	}
	for name, cfg := range map[string]edge.ChainConfig{
		"no chain":           {Cuts: []core.CutPoint{1}},
		"no cuts":            {Chain: chain},
		"edge runs nothing":  {Chain: chain, Cuts: []core.CutPoint{0, 2}},
		"cut past the chain": {Chain: chain, Cuts: []core.CutPoint{core.CutPoint(len(chain))}},
		"unordered cuts":     {Chain: chain, Cuts: []core.CutPoint{3, 2}},
		"cut past MaxLocal":  {Chain: chain, Cuts: []core.CutPoint{3}, MaxLocal: 2},
		"unpriceable replan": {Chain: chain, Cuts: []core.CutPoint{1}, Replan: edge.ReplanConfig{Enabled: true}},
	} {
		if _, err := edge.NewRoutedChainClient(next, cfg); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	if _, err := edge.NewRoutedChainClient(next, edge.ChainConfig{Chain: chain, Cuts: []core.CutPoint{1}}); err != nil {
		t.Fatalf("minimal config rejected: %v", err)
	}
}
