package fleet

// Wall-clock throughput ratios of a saturated cloud tier. They compare
// images/s between two runs on one host, so a busy machine can flip them;
// they run in the nightly soak (MEANET_SOAK_SCALE set), not in tier-1. Every
// cloud forward is a serialized SlowModel sleep over a zero-cpu model, large
// against the fixture's edge compute, so the modeled accelerator bounds
// throughput rather than the host: a real forward would put the replicas in
// contention for the same cores and measure that instead of routing.

import (
	"os"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/tensor"
)

// flatModel answers constant logits over the fixture's class count at no
// cpu cost.
type flatModel struct{ classes int }

func (f flatModel) Logits(x *tensor.Tensor, train bool) *tensor.Tensor {
	return tensor.New(x.Dim(0), f.classes)
}

// TestFleetSaturationRatios holds two rows:
//   - shedding: at 8 edges a server running admission control (MaxInFlight
//     2) out-serves one that parks every request behind its slow
//     accelerator, sheds only when it is the shedding server, and is
//     transparent to a single edge, which never has two batches in flight;
//   - replicas: two replicas serve at least 1.7× the images/s of one.
//
// Every run offloads every instance (threshold 0).
func TestFleetSaturationRatios(t *testing.T) {
	if os.Getenv("MEANET_SOAK_SCALE") == "" {
		t.Skip("wall-clock throughput ratios run in the nightly soak; set MEANET_SOAK_SCALE")
	}
	m, _, x, cost := fleetFixture(t, 4)
	// run offloads every instance of an edges-sized fleet to fresh servers,
	// one per entry of opts.
	run := func(t *testing.T, edges, batches int, delay time.Duration, opts ...[]cloud.Option) *Result {
		t.Helper()
		servers, addrs := startReplicas(t, len(opts), func(r int) (*cloud.Server, error) {
			return cloud.NewServer(&SlowModel{Inner: flatModel{classes: 6}, Delay: delay}, nil, opts[r]...)
		})
		res, err := Run(Config{
			Addrs:   addrs,
			Edges:   edges,
			Batches: batches,
			Net:     m,
			Policy:  core.Policy{Threshold: 0, UseCloud: true, CloudRetries: 1},
			Cost:    cost,
			Input:   x,
		})
		for _, srv := range servers {
			srv.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.CloudServed == 0 {
			t.Fatalf("%d-edge fleet never reached the cloud; the scenario exercises nothing", edges)
		}
		return res
	}
	batches := 4 * soakScale()

	for _, tc := range []struct {
		name string
		test func(t *testing.T)
	}{
		{"shedding", func(t *testing.T) {
			const delay = 20 * time.Millisecond
			shedding := []cloud.Option{cloud.WithShedding(cloud.ShedPolicy{MaxInFlight: 2, RetryAfter: 25 * time.Millisecond})}
			park := run(t, 8, batches, delay, nil)
			shed := run(t, 8, batches, delay, shedding)
			single := run(t, 1, batches, delay, shedding)
			t.Logf("8 edges: park-all %.0f images/s, shedding %.0f images/s (%d shed events, %d fallbacks)",
				park.ImagesPerSec, shed.ImagesPerSec, shed.ShedEvents, shed.ShedFallbacks)
			if shed.ImagesPerSec <= park.ImagesPerSec {
				t.Errorf("shedding server not faster at 8 edges: %.0f vs %.0f images/s", shed.ImagesPerSec, park.ImagesPerSec)
			}
			if shed.ShedEvents == 0 || shed.ShedFallbacks == 0 {
				t.Errorf("shedding server at 8 edges shed nothing (%d events, %d fallbacks)", shed.ShedEvents, shed.ShedFallbacks)
			}
			if park.ShedEvents != 0 || park.ShedFallbacks != 0 {
				t.Errorf("park-all server shed: %d events, %d fallbacks", park.ShedEvents, park.ShedFallbacks)
			}
			if single.ShedEvents != 0 || single.ShedFallbacks != 0 {
				t.Errorf("shedding server shed a single-edge fleet: %d events, %d fallbacks", single.ShedEvents, single.ShedFallbacks)
			}
		}},
		{"replicas", func(t *testing.T) {
			const delay = 80 * time.Millisecond
			one := run(t, 8, batches, delay, nil)
			two := run(t, 8, batches, delay, nil, nil)
			speedup := two.ImagesPerSec / one.ImagesPerSec
			t.Logf("1 replica %.0f images/s, 2 replicas %.0f images/s (%.2f×)",
				one.ImagesPerSec, two.ImagesPerSec, speedup)
			if speedup < 1.7 {
				t.Errorf("2 replicas scale only %.2f× over 1, want ≥ 1.7×", speedup)
			}
		}},
	} {
		t.Run(tc.name, tc.test)
	}
}
