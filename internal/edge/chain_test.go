package edge_test

// End-to-end tests of the multi-hop chain client over real TCP: a
// pre-stage-mode server answers relay frames with MsgError and the client
// survives (the MsgHello legacy pattern), and the routed client validates its
// configuration. That a chain answers bitwise like the monolithic model, at
// every cut, is a row of TestServingConformance (internal/deploy).

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

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
