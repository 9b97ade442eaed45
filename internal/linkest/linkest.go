// Package linkest estimates the live condition of the edge→cloud uplink
// from per-request transport samples. The paper's premise is adaptation to
// observed conditions; this estimator is the observation half: every cloud
// round trip yields one (bytes, send duration, wait duration) sample, and
// exponentially-weighted moving averages turn the noisy stream into a stable
// (RTT, throughput) estimate the runtime's controllers can act on.
//
// The two components are measured from different phases of a round trip:
//
//   - throughput comes from the send phase: writing a frame through a
//     bandwidth-limited link takes bytes/throughput, so the effective uplink
//     throughput sample is wireBytes/sendDur. Small frames (pings) carry no
//     bandwidth information and are skipped, and so are sends that complete
//     faster than minSendDur — on a real socket those only measured
//     the copy into the kernel buffer, not the wire, so the estimator
//     reports "unknown" (static-model fallback) rather than a fantasy rate.
//   - RTT comes from the wait phase: the time from write completion to the
//     response frame covers propagation, server queueing and compute — the
//     "cloud turnaround" an offload pays on top of serialization.
//
// Estimates deliberately include server-side queueing: the runtime adapts to
// the latency an offload actually experiences, not to an idealized wire.
package linkest

import (
	"sync"
	"time"
)

// The estimator's tuning. Nothing in the system has ever needed other values,
// so they are constants, not configuration.
const (
	// alpha is the EWMA smoothing factor, the weight of the newest sample:
	// heavy enough to track a mid-run link change within a handful of
	// batches, light enough to ride out jitter.
	alpha = 0.25
	// minBytes is the smallest wire size that contributes a throughput
	// sample. Below it, serialization time is dominated by per-write overhead
	// and the bytes/duration quotient is noise; the sample still updates the
	// RTT estimate.
	minBytes = 256
	// minSendDur is the shortest send duration that contributes a throughput
	// sample. On a real TCP socket, a Write that returns faster than this
	// only measured the copy into the kernel send buffer, not the wire —
	// folding it in would report an absurdly fast link and zero predicted
	// upload times. Skipped samples leave the throughput unknown, which
	// callers treat as "fall back to the static model": the safe answer when
	// the uplink is too fast (or the frame too small) to observe from the
	// sender. Shaped links (netsim) and genuinely slow uplinks block the
	// writer for the serialization time, so their samples pass. RTT still
	// updates either way.
	minSendDur = time.Millisecond
)

// Estimate is a snapshot of the link state.
type Estimate struct {
	// RTT is the smoothed cloud turnaround: write completion → response,
	// including server queueing and compute.
	RTT time.Duration
	// Mbps is the smoothed effective uplink throughput in megabits per
	// second. 0 until a large-enough sample arrives.
	Mbps float64
	// Samples counts the round trips folded in so far. Callers gate
	// adaptation on it (a one-sample "estimate" is just the last request).
	Samples int
}

// UploadTime predicts the serialization time of a payload at the estimated
// throughput (0 when throughput is unknown — callers fall back to a static
// model).
func (e Estimate) UploadTime(bytes int64) time.Duration {
	if bytes <= 0 || e.Mbps <= 0 {
		return 0
	}
	seconds := float64(bytes*8) / (e.Mbps * 1e6)
	return time.Duration(seconds * float64(time.Second))
}

// Estimator maintains EWMA link estimates from per-request samples. Safe for
// concurrent use (the pipelined TCP client records from many goroutines).
//
// Throughput is smoothed in the TIME domain (seconds per bit — a harmonic
// EWMA of the rate), not the rate domain: the estimate exists to predict
// upload durations, which are linear in seconds-per-bit, and a rate-domain
// EWMA is dangerously slow to register congestion (dropping 400→2 Mbps
// takes one ~200ms sample to show up as 2 Mbps-worth of upload time in the
// time domain, but ~17 samples in the rate domain).
type Estimator struct {
	mu        sync.Mutex // guards rtt, secPerBit, haveRTT, haveBW, samples
	rtt       float64    // seconds
	secPerBit float64
	haveRTT   bool
	haveBW    bool
	samples   int
}

// New builds an empty estimator.
func New() *Estimator { return &Estimator{} }

// Record folds one round trip in: wireBytes were written in sendDur, and the
// response arrived waitDur after the write completed. Non-positive durations
// (clock quirks, in-process transports) skip the corresponding component.
func (e *Estimator) Record(wireBytes int64, sendDur, waitDur time.Duration) {
	var spbSample float64
	if wireBytes >= minBytes && sendDur >= minSendDur {
		spbSample = sendDur.Seconds() / float64(wireBytes*8)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.samples++
	if waitDur > 0 {
		if e.haveRTT {
			e.rtt += alpha * (waitDur.Seconds() - e.rtt)
		} else {
			e.rtt, e.haveRTT = waitDur.Seconds(), true
		}
	}
	if spbSample > 0 {
		if e.haveBW {
			e.secPerBit += alpha * (spbSample - e.secPerBit)
		} else {
			e.secPerBit, e.haveBW = spbSample, true
		}
	}
}

// Estimate snapshots the current link state.
func (e *Estimator) Estimate() Estimate {
	e.mu.Lock()
	defer e.mu.Unlock()
	est := Estimate{
		RTT:     time.Duration(e.rtt * float64(time.Second)),
		Samples: e.samples,
	}
	if e.haveBW && e.secPerBit > 0 {
		est.Mbps = 1 / e.secPerBit / 1e6
	}
	return est
}

// Reset discards all state (e.g. after a reconnect onto a different path).
func (e *Estimator) Reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rtt, e.secPerBit, e.haveRTT, e.haveBW, e.samples = 0, 0, false, false, 0
}
