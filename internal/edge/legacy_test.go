package edge

import (
	"strings"
	"testing"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// preInferServer answers every frame the way a server predating MsgInfer
// does — a MsgError for the type it does not know — until the transport
// closes. It returns how many MsgInfer frames it refused.
func preInferServer(h *scriptedHop) <-chan int {
	refused := make(chan int, 1)
	go func() {
		n := 0
		for f := range h.frames {
			if f.Type == protocol.MsgInfer {
				n++
			}
			h.reply(f, protocol.MsgError, []byte("unsupported message type msgtype(14)"))
		}
		refused <- n
	}()
	return refused
}

// TestInferAgainstPreInferServer names the legacy peer on the edge side: a
// server that answers MsgInfer with MsgError is an ordinary cloud failure —
// no fallback frame, no negotiation. The call errors; the runtime serves the
// batch from the edge with exact CloudFailed books; a replica router excludes
// that member like any other that failed and carries on with the rest.
func TestInferAgainstPreInferServer(t *testing.T) {
	hop, client := newScriptedHop(t)
	refused := preInferServer(hop)

	img := tensor.New(3, 8, 8)
	if _, _, err := client.Classify(img); err == nil || !strings.Contains(err.Error(), "cloud error") {
		t.Fatalf("classify against a pre-MsgInfer server: %v, want the cloud's error", err)
	}
	if _, _, err := client.ClassifyFeaturesBatch([]*tensor.Tensor{img, img}); err == nil {
		t.Fatal("feature batch against a pre-MsgInfer server succeeded")
	}
	if _, ok := client.CloudLoad(); ok {
		t.Fatal("an error reply was read as carrying a load snapshot")
	}

	// Runtime: every qualifying instance is attempted once, fails, and is
	// served by the edge — edge + cloud + fallback == N, exactly.
	m, s := tinyMEANet(t, 51)
	rt, err := NewRuntime(m, core.Policy{Threshold: 0, UseCloud: true}, client, testCost())
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	x, _ := s.Test.Batch([]int{0, 1, 2, 3, 4, 5})
	dec, err := rt.Classify(x)
	if err != nil {
		t.Fatalf("a failing cloud must not fail the batch: %v", err)
	}
	edgeOnly, err := m.InferBatchedRep(x, core.Policy{UseCloud: false}, core.RepRaw, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range dec {
		if !d.CloudFailed || d.Exit == core.ExitCloud || d.CloudAttempts != 1 {
			t.Fatalf("instance %d: %+v, want one failed attempt and an edge exit", i, d)
		}
		if d.Pred != edgeOnly[i].Pred || d.Exit != edgeOnly[i].Exit {
			t.Fatalf("instance %d fallback %d/%v, edge-only %d/%v", i, d.Pred, d.Exit, edgeOnly[i].Pred, edgeOnly[i].Exit)
		}
	}
	rep := rt.Report()
	edgeServed := rep.Exits[core.ExitMain] + rep.Exits[core.ExitExtension]
	if rep.N != n || rep.CloudFailures != n || rep.Exits[core.ExitCloud] != 0 || rep.ShedFallbacks != 0 || edgeServed != n {
		t.Fatalf("books against a pre-MsgInfer server: %+v", rep)
	}
	if rep.BytesSent != n*testCost().ImageBytes {
		t.Fatalf("failed uploads charged %d bytes, want %d (the attempt transmitted)", rep.BytesSent, n*testCost().ImageBytes)
	}

	// Router: the legacy member is tried, charged a failure, excluded; the
	// healthy member serves this call and every call inside the window.
	healthy := &scriptReplica{}
	mc, err := NewMultiClient([]CloudClient{client, healthy}, []string{"legacy", "healthy"}, MultiConfig{})
	if err != nil {
		t.Fatal(err)
	}
	healthy.mu.Lock() // load the healthy member so scoring tries the legacy one first
	healthy.load, healthy.haveLoad = protocol.LoadStatus{QueueDepth: 50, Active: 4}, true
	healthy.mu.Unlock()
	for i := 0; i < 5; i++ {
		if _, _, err := mc.ClassifyBatch(testImgs(2)); err != nil {
			t.Fatalf("call %d through a fleet with one legacy member: %v", i, err)
		}
	}
	st := mc.ReplicaStats()
	if st[0].Failures != 1 || !st[0].Excluded || st[0].Offloads != 0 || st[1].Offloads != 5 {
		t.Fatalf("replica books: legacy %+v, healthy %+v (want 1 failure + excluded, 5 offloads)", st[0], st[1])
	}

	client.Close()
	if got := <-refused; got != 4 {
		t.Fatalf("the legacy server saw %d MsgInfer frames, want 4 (classify, feature batch, runtime batch, one routed call)", got)
	}
}
