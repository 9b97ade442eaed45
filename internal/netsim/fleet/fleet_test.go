package fleet

// Fleet-scale stress/soak tests: many goroutine edges × flaky shaped links ×
// a shedding server, several seconds under -race, with exact instance
// accounting (edge-served + cloud-served + shed-fallback == total, per edge
// and fleet-wide) and a goleak-style final goroutine check. The exact
// edge/server cross-agreement that faults legitimately relax is pinned on
// clean links by TestServingConformance (internal/deploy).

import (
	"math/rand"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/energy"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/tensor"
)

// fleetFixture builds the shared untrained edge MEANet (uniform-ish logits →
// entropy ≈ ln(classes), so a low threshold offloads every batch), a small
// raw cloud classifier over the same input geometry, the input batch, and
// cost params.
func fleetFixture(t *testing.T, seed int64) (*core.MEANet, *models.Classifier, *tensor.Tensor, *edge.CostParams) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	backbone, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "fleetedge", InChannels: 3, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{2, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.BuildMEANetA(rng, backbone, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	cloudBackbone, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "fleetcloud", InChannels: 3, StemChannels: 8,
		Channels: []int{8, 16}, Blocks: []int{1, 1}, Strides: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	cls := models.NewClassifier(rng, cloudBackbone, 6)
	x := tensor.Randn(rng, 1, 8, 3, 16, 16)
	cost := &edge.CostParams{
		Compute:    energy.EdgeGPUCIFAR(),
		WiFi:       energy.DefaultWiFi(),
		ImageBytes: 4 * 3 * 16 * 16,
	}
	return m, cls, x, cost
}

// checkNoGoroutineLeaks is the goleak-style final check: after everything is
// closed, the goroutine count must settle back to (about) where the test
// started — a leaked read loop, collector or redialer holds it up.
func checkNoGoroutineLeaks(t *testing.T, before int) {
	t.Helper()
	const slack = 3 // runtime/testing background goroutines come and go
	deadline := time.Now().Add(5 * time.Second)
	for {
		if runtime.NumGoroutine() <= before+slack {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutine leak: %d at start, %d after teardown\n%s",
		before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// TestFleetSoakSheddingFlakyLinks is the stress/soak scenario: N goroutine
// edges hammer one slow (serialized-accelerator) shedding server over shaped
// links that abruptly die every few hundred KB, for a few seconds under
// -race. Throughout: no instance is lost or double-counted (the harness
// enforces the per-edge identity; the fleet-wide identity and the modeled
// byte algebra are asserted here), sheds actually happen and are all
// accounted as edge fallbacks, the server's books stay on the conservative
// side of the edges' (faults lose responses, never invent them), and no
// goroutine outlives the teardown.
func TestFleetSoakSheddingFlakyLinks(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()
	m, cls, x, cost := fleetFixture(t, 1)
	srv, err := cloud.NewServer(
		&SlowModel{Inner: cls, Delay: 2 * time.Millisecond},
		nil,
		cloud.WithShedding(cloud.ShedPolicy{MaxInFlight: 2, RetryAfter: 10 * time.Millisecond}),
	)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr().String()

	edges, batches := 8, 30
	if testing.Short() {
		edges, batches = 6, 10
	}
	batches *= soakScale()
	// Flaky links: every connection carries a byte budget and then dies
	// abruptly (mid-frame for the small budgets); the per-edge dial counter
	// cycles the budgets so redials land on different failure points. One
	// batch frame is ~25KB, so the small budgets kill connections after a
	// handful of uploads.
	budgets := []int64{60_000, 150_000, 400_000, 1 << 30}
	dials := make([]atomic.Int64, edges)
	dial := func(i int) (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		k := dials[i].Add(1) - 1
		budget := budgets[(int64(i)+k)%int64(len(budgets))]
		shaped := netsim.Shape(conn, netsim.Link{Latency: 200 * time.Microsecond, Mbps: 800})
		return netsim.InjectFault(shaped, netsim.CloseAbruptly, budget), nil
	}

	maxTh := 1.0 // below the untrained entropy (≈ ln 6), so pressure never dies
	res, err := Run(Config{
		Addrs:   []string{addr},
		Edges:   edges,
		Batches: batches,
		Net:     m,
		Policy:  core.Policy{Threshold: 0.25, UseCloud: true, CloudRetries: 2},
		Cost:    cost,
		Input:   x,
		Dial:    dial,
		ClientConfig: edge.DialConfig{
			RequestTimeout: 2 * time.Second,
			RedialBackoff:  2 * time.Millisecond,
		},
		Adapt: &edge.AdaptConfig{MaxThreshold: maxTh},
	})
	if err != nil {
		t.Fatal(err)
	}

	total := edges * batches * x.Dim(0)
	if res.Instances != total {
		t.Fatalf("fleet classified %d instances, fed %d", res.Instances, total)
	}
	// The headline identity, fleet-wide: every instance is exactly one of
	// edge-served, cloud-served or shed-fallback.
	if got := res.EdgeServed + res.CloudServed + res.ShedFallbacks; got != total {
		t.Fatalf("accounting identity broken: %d edge + %d cloud + %d shed = %d, want %d",
			res.EdgeServed, res.CloudServed, res.ShedFallbacks, got, total)
	}
	if res.ShedEvents == 0 || res.ShedFallbacks == 0 {
		t.Fatalf("soak produced no sheds (%d events, %d fallbacks) — the server never saturated",
			res.ShedEvents, res.ShedFallbacks)
	}
	var wireSheds uint64
	for _, er := range res.Edges {
		rep := er.Report
		// Modeled byte algebra per edge: only admitted upload attempts are
		// billed, shed fallbacks never are.
		want := int64(rep.RawUploads)*cost.ImageBytes + int64(rep.FeatureUploads)*cost.FeatureBytes
		if rep.BytesSent != want {
			t.Fatalf("edge %d modeled bytes %d != %d raw×%dB (shed fallbacks leaked into the bill?)",
				er.Index, rep.BytesSent, rep.RawUploads, cost.ImageBytes)
		}
		if rep.ShedFallbacks > 0 && rep.ShedEvents == 0 {
			t.Fatalf("edge %d has %d shed fallbacks but no shed events", er.Index, rep.ShedFallbacks)
		}
		if th := rep.Threshold; th > maxTh*(1+1e-9) {
			t.Fatalf("edge %d threshold escaped the clamp: %v", er.Index, th)
		}
		wireSheds += er.WireSheds
	}
	st := srv.Stats()
	// Faults lose frames in both directions, but only conservatively: the
	// server cannot have DELIVERED more sheds than it wrote, and the edges
	// cannot have counted more cloud exits than the server served.
	if st.Sheds < wireSheds {
		t.Fatalf("edges saw %d sheds, server only wrote %d", wireSheds, st.Sheds)
	}
	if st.InstancesServed < uint64(res.CloudServed) {
		t.Fatalf("edges counted %d cloud exits, server served %d instances", res.CloudServed, st.InstancesServed)
	}
	t.Logf("soak: %d edges × %d batches in %v (%.0f img/s): %d edge / %d cloud / %d shed-fallback, %d shed events, %d cloud failures, server sheds %d",
		edges, batches, res.Elapsed.Round(time.Millisecond), res.ImagesPerSec,
		res.EdgeServed, res.CloudServed, res.ShedFallbacks, res.ShedEvents, res.CloudFailures, st.Sheds)

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	checkNoGoroutineLeaks(t, goroutinesBefore)
}
