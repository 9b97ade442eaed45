package linkest

import (
	"math"
	"sync"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/netsim"
)

// sampleFromLink derives the (sendDur, waitDur) a round trip would observe
// on an analytic netsim link: the send phase pays latency + serialization,
// the wait phase the return latency (responses are tiny).
func sampleFromLink(link netsim.Link, wireBytes int64) (time.Duration, time.Duration) {
	return link.TransferTime(wireBytes), link.Latency
}

func feed(e *Estimator, link netsim.Link, wireBytes int64, n int) {
	for i := 0; i < n; i++ {
		send, wait := sampleFromLink(link, wireBytes)
		e.Record(wireBytes, send, wait)
	}
}

// TestEstimatorConvergesUnderStepChange drives the estimator with samples
// from a fast link, then steps the underlying netsim.Link down, and checks
// the EWMA re-converges onto the new bandwidth and RTT within a bounded
// number of samples.
func TestEstimatorConvergesUnderStepChange(t *testing.T) {
	const wireBytes = 64 * 1024
	fast := netsim.Link{Latency: 2 * time.Millisecond, Mbps: 100}
	slow := netsim.Link{Latency: 20 * time.Millisecond, Mbps: 4}

	e := New()
	feed(e, fast, wireBytes, 32)
	est := e.Estimate()
	if est.Samples != 32 {
		t.Fatalf("samples = %d, want 32", est.Samples)
	}
	// The send phase includes the propagation latency, so the effective
	// throughput estimate sits below the configured bandwidth; it must still
	// land well within the fast/slow gap.
	sendFast, _ := sampleFromLink(fast, wireBytes)
	wantFast := float64(wireBytes*8) / sendFast.Seconds() / 1e6
	if math.Abs(est.Mbps-wantFast) > 0.05*wantFast {
		t.Fatalf("fast-link estimate %.2f Mbps, want ≈%.2f", est.Mbps, wantFast)
	}
	if d := est.RTT - fast.Latency; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("fast-link RTT estimate %v, want ≈%v", est.RTT, fast.Latency)
	}

	// Step change: EWMA alpha 0.25 halves the gap every ~2.4 samples, so 24
	// samples leave ~0.1% of the 70 Mbps step — within the 10% band.
	feed(e, slow, wireBytes, 24)
	est = e.Estimate()
	sendSlow, _ := sampleFromLink(slow, wireBytes)
	wantSlow := float64(wireBytes*8) / sendSlow.Seconds() / 1e6
	if math.Abs(est.Mbps-wantSlow) > 0.1*wantSlow {
		t.Fatalf("post-step estimate %.2f Mbps did not converge to ≈%.2f", est.Mbps, wantSlow)
	}
	if est.RTT < 15*time.Millisecond {
		t.Fatalf("post-step RTT estimate %v did not track the %v link", est.RTT, slow.Latency)
	}

	// Prediction round-trips: the upload-time model at the estimated
	// throughput must reproduce the serialization cost it was fed.
	if got := est.UploadTime(wireBytes); got < sendSlow*9/10 || got > sendSlow*11/10 {
		t.Fatalf("UploadTime(%d) = %v, want ≈%v", wireBytes, got, sendSlow)
	}
}

// TestEstimatorSkipsDegenerateSamples pins the guard rails: tiny frames and
// non-positive durations must not poison the throughput estimate.
func TestEstimatorSkipsDegenerateSamples(t *testing.T) {
	e := New()
	e.Record(17, 0, 500*time.Microsecond) // ping-sized, instant write
	est := e.Estimate()
	if est.Mbps != 0 {
		t.Fatalf("ping sample produced a throughput estimate: %v", est.Mbps)
	}
	if est.RTT == 0 {
		t.Fatal("ping sample should still update RTT")
	}
	if est.Samples != 1 {
		t.Fatalf("samples = %d, want 1", est.Samples)
	}
	if est.UploadTime(1<<20) != 0 {
		t.Fatal("UploadTime must be 0 while throughput is unknown")
	}
	e.Record(1<<20, -time.Second, -time.Second) // clock went backwards
	if got := e.Estimate(); got.Mbps != 0 || got.RTT != est.RTT {
		t.Fatalf("negative durations mutated the estimate: %+v", got)
	}
	// A large frame whose Write returned in microseconds only measured the
	// copy into the kernel send buffer — it must NOT produce a (fantasy)
	// multi-Gbps estimate.
	e.Record(1<<20, 100*time.Microsecond, time.Millisecond)
	if got := e.Estimate(); got.Mbps != 0 {
		t.Fatalf("kernel-buffer-speed send produced a throughput estimate: %v Mbps", got.Mbps)
	}

	e.Reset()
	if got := e.Estimate(); got.Samples != 0 || got.Mbps != 0 || got.RTT != 0 {
		t.Fatalf("reset left state behind: %+v", got)
	}
}

// TestEstimatorConcurrentRecords checks the estimator under concurrent
// writers (the pipelined client records from many goroutines); run with
// -race.
func TestEstimatorConcurrentRecords(t *testing.T) {
	e := New()
	link := netsim.Link{Latency: time.Millisecond, Mbps: 50}
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			feed(e, link, 32*1024, per)
		}()
	}
	wg.Wait()
	est := e.Estimate()
	if est.Samples != workers*per {
		t.Fatalf("samples = %d, want %d", est.Samples, workers*per)
	}
	send, _ := sampleFromLink(link, 32*1024)
	want := float64(32*1024*8) / send.Seconds() / 1e6
	if math.Abs(est.Mbps-want) > 0.01*want {
		t.Fatalf("uniform samples must converge exactly: %.3f vs %.3f", est.Mbps, want)
	}
}

// TestZeroConfigEstimates pins the estimator's built-in tuning — EWMA weight
// 0.25, 256-byte and 1ms sample floors — through a fixed sample script. The
// literals were read off the tree in which the three were still Config fields
// left at zero; the rows on either side of each floor (255/256 bytes,
// 999µs/1ms) make a moved floor change which samples count, not just a digit.
func TestZeroConfigEstimates(t *testing.T) {
	e := New()
	for i, s := range []struct {
		bytes      int64
		send, wait time.Duration
		want       Estimate
	}{
		{17, 0, 500 * time.Microsecond, Estimate{RTT: 500000, Samples: 1}},
		{255, 2 * time.Millisecond, time.Millisecond, Estimate{RTT: 625000, Samples: 2}},
		{256, 999 * time.Microsecond, time.Millisecond, Estimate{RTT: 718750, Samples: 3}},
		{256, time.Millisecond, 2 * time.Millisecond, Estimate{RTT: 1039062, Mbps: 2.048, Samples: 4}},
		{64 << 10, 100 * time.Millisecond, 10 * time.Millisecond, Estimate{RTT: 3279296, Mbps: 2.4160737327188944, Samples: 5}},
		{64 << 10, 300 * time.Millisecond, 40 * time.Millisecond, Estimate{RTT: 12459472, Mbps: 2.2052071503680337, Samples: 6}},
		{1 << 20, 50 * time.Millisecond, 0, Estimate{RTT: 12459472, Mbps: 2.927450008724481, Samples: 7}},
	} {
		e.Record(s.bytes, s.send, s.wait)
		if got := e.Estimate(); got != s.want {
			t.Errorf("sample %d: estimate %#v, want %#v", i, got, s.want)
		}
	}
}
