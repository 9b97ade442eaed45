package edge

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/energy"
	"github.com/meanet/meanet/internal/linkest"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// OffloadMode selects which representation of a cloud-qualifying instance
// the runtime uploads.
type OffloadMode int

// Offload modes.
const (
	// OffloadRaw always uploads raw pixels (the paper's default).
	OffloadRaw OffloadMode = iota
	// OffloadFeatures always uploads the main-block feature tensor (§III-C
	// "sending features"); the transport must reach a tail-equipped server.
	OffloadFeatures
	// OffloadAuto compares the modeled upload cost (bytes and WiFi energy)
	// of the two representations per batch and picks the cheaper one. The
	// features are already in hand from MainForward, so the choice trades
	// communication only. Without a feature-capable transport or a cost
	// model it degrades to raw.
	OffloadAuto
)

// String names the mode.
func (m OffloadMode) String() string {
	switch m {
	case OffloadRaw:
		return "raw"
	case OffloadFeatures:
		return "features"
	case OffloadAuto:
		return "auto"
	default:
		return fmt.Sprintf("offloadmode(%d)", int(m))
	}
}

// ParseOffloadMode parses a -offload flag value.
func ParseOffloadMode(s string) (OffloadMode, error) {
	switch s {
	case "raw":
		return OffloadRaw, nil
	case "features", "feat":
		return OffloadFeatures, nil
	case "auto":
		return OffloadAuto, nil
	default:
		return 0, fmt.Errorf("edge: unknown offload mode %q (want raw, features or auto)", s)
	}
}

// CostParams parameterizes the runtime's energy accounting: per-instance MAC
// counts of the two edge paths (from the profiler), the calibrated compute
// model, the WiFi model, and the upload size per instance in each
// representation.
type CostParams struct {
	MainMACs   int64 // main block + main exit
	ExtMACs    int64 // adaptive + extension + extension exit
	Compute    energy.ComputeModel
	WiFi       energy.WiFiModel
	ImageBytes int64
	// FeatureBytes is the upload size of one main-block feature tensor
	// (energy.FeatureBytes of its element count). 0 means unknown, which
	// disables the features choice in OffloadAuto.
	FeatureBytes int64
	// WireImageBytes is what one raw instance ACTUALLY puts on the wire.
	// ImageBytes follows the paper's 8-bit pixel model for the energy
	// algebra, but protocol.EncodeTensor ships float32 — 4× the bytes — and
	// the live link estimator measures those real frames, so predicting a
	// raw upload's latency from ImageBytes would undercount it 4×
	// (FeatureBytes is already the true float32 size). 0 falls back to
	// ImageBytes (correct when ImageBytes is itself a wire-true size, as
	// the benchmarks and experiments configure).
	WireImageBytes int64
}

// uploadBytes is the per-instance MODELED upload size of a representation
// (the paper's accounting unit: bytes, energy, modeled latency).
func (c *CostParams) uploadBytes(rep core.OffloadRep) int64 {
	if rep == core.RepFeatures {
		return c.FeatureBytes
	}
	return c.ImageBytes
}

// wireUploadBytes is the per-instance size a representation actually
// serializes — the unit the live latency predictions must use, since the
// estimator's bandwidth was measured from real frames.
func (c *CostParams) wireUploadBytes(rep core.OffloadRep) int64 {
	if rep == core.RepFeatures {
		return c.FeatureBytes
	}
	if c.WireImageBytes > 0 {
		return c.WireImageBytes
	}
	return c.ImageBytes
}

// AdaptConfig tunes the closed-loop adaptation (SetLatencyBudget and the
// live half of OffloadAuto). The zero value picks usable defaults.
type AdaptConfig struct {
	// MinSamples gates the live estimates: until the link estimator has
	// folded in this many round trips, decisions fall back to the static
	// CostParams model (default 8).
	MinSamples int
	// MaxThreshold is the ceiling of the controlled threshold (default 10 —
	// entropy over any plausible class count lies below).
	MaxThreshold float64
}

func (c *AdaptConfig) fillDefaults() {
	if c.MinSamples <= 0 {
		c.MinSamples = 8
	}
	if c.MaxThreshold <= 0 {
		c.MaxThreshold = 10
	}
}

// The controller's fixed tuning.
const (
	// adaptStepUp and adaptStepDown are the multiplicative threshold nudges:
	// over budget raises Threshold by ×(1+adaptStepUp) (offload less),
	// headroom lowers it by ×(1−adaptStepDown). Up faster than down —
	// shedding load when the budget is blown matters more than reclaiming
	// accuracy.
	adaptStepUp   = 0.15
	adaptStepDown = 0.05
	// adaptHeadroom is the fraction of the budget below which the controller
	// nudges the threshold down; between adaptHeadroom×budget and the budget
	// is the deadband where the threshold holds.
	adaptHeadroom = 0.6
	// adaptMinThreshold is the floor of the controlled threshold.
	adaptMinThreshold = 1e-3
	// repHysteresis damps representation flapping in auto mode: once the
	// runtime has fallen back to the compact representation, raw must fit
	// within repHysteresis×budget (not just the budget) to flip back.
	repHysteresis = 0.8
)

// Report summarizes a runtime's activity.
type Report struct {
	N             int
	Exits         map[core.ExitPoint]int
	CloudFailures int
	BytesSent     int64
	Energy        energy.Breakdown

	// RawUploads and FeatureUploads count per-instance upload attempts by
	// representation (retries included): BytesSent is exactly
	// RawUploads×ImageBytes + FeatureUploads×FeatureBytes.
	RawUploads     int
	FeatureUploads int

	// ShedEvents counts cloud calls answered with a shed frame (admission
	// control refusals); ShedFallbacks counts the INSTANCES those calls
	// pushed onto the edge fallback. Shed instances charge no upload
	// bytes/energy — the modeled accounting bills admitted offloads, so a
	// fleet's books always balance as
	// (edge-served − shed-fallbacks) + cloud-served + shed-fallbacks == N.
	ShedEvents    int
	ShedFallbacks int

	// Modeled cumulative latency: edge computation time and upload
	// serialization time (the paper's latency argument for early exits:
	// instances that terminate at the edge skip the upload entirely).
	LatencyCompute time.Duration
	LatencyComm    time.Duration

	// Threshold is the entropy threshold at snapshot time — under a latency
	// budget it moves, so the report records where the controller left it.
	Threshold float64
	// RepFlips counts mid-run switches of the auto mode's upload
	// representation (raw↔features) — the observable trace of live link
	// adaptation.
	RepFlips int

	// Replicas is the per-replica routing snapshot when the cloud client is
	// a multi-replica router (edge.MultiClient); nil for single-connection
	// transports.
	Replicas []ReplicaStats

	// Chain is the per-path chain accounting when the cloud client is a
	// ChainClient (chain vs direct-fallback instances, cut moves, current
	// cuts); nil for non-chain transports.
	Chain *ChainStats
}

// CloudFraction is β: the fraction of instances that exited at the cloud.
func (r Report) CloudFraction() float64 {
	if r.N == 0 {
		return 0
	}
	return float64(r.Exits[core.ExitCloud]) / float64(r.N)
}

// Runtime executes Algorithm 2 over a MEANet with a cloud transport,
// accumulating exit statistics and edge-side energy.
type Runtime struct {
	net   *core.MEANet
	cloud Transport // nil = edge-only
	cost  *CostParams

	// offload builds the cloud call of one batch (Offload); fault-injection
	// tests swap it to fail individual slots of a call, which no production
	// transport does.
	offload func(t Transport, rep core.OffloadRep) core.CloudBatchFunc

	// mu guards policy, mode, budget, adapt, lastRep, haveLastRep, repFlips,
	// shedUntil, n, exits, cloudFailures, shedEvents, shedFallbacks, bytesSent,
	// rawUploads, featUploads, energyTotal, latencyCompute, latencyComm
	mu             sync.Mutex
	policy         core.Policy
	mode           OffloadMode
	budget         time.Duration // 0 = closed-loop adaptation off
	adapt          AdaptConfig
	lastRep        core.OffloadRep
	haveLastRep    bool
	repFlips       int
	shedUntil      time.Time // offload hold from the last shed's RetryAfter
	n              int
	exits          map[core.ExitPoint]int
	cloudFailures  int
	shedEvents     int
	shedFallbacks  int
	bytesSent      int64
	rawUploads     int
	featUploads    int
	energyTotal    energy.Breakdown
	latencyCompute time.Duration
	latencyComm    time.Duration
}

// NewRuntime builds a runtime. cloud may be nil (edge-only operation) and
// need not be a Transport (asTransport adapts it); cost may be nil (no energy
// accounting).
func NewRuntime(m *core.MEANet, policy core.Policy, cloud CloudClient, cost *CostParams) (*Runtime, error) {
	if m == nil {
		return nil, errors.New("edge: nil MEANet")
	}
	if policy.UseCloud && cloud == nil {
		return nil, errors.New("edge: policy enables cloud but no cloud client given")
	}
	r := &Runtime{
		net:     m,
		cloud:   asTransport(cloud),
		policy:  policy,
		cost:    cost,
		offload: Offload,
		exits:   make(map[core.ExitPoint]int),
	}
	r.adapt.fillDefaults()
	return r, nil
}

// SetAdaptConfig replaces the adaptation tuning (zero fields take defaults).
func (r *Runtime) SetAdaptConfig(cfg AdaptConfig) {
	cfg.fillDefaults()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.adapt = cfg
}

// SetLatencyBudget enables closed-loop threshold control: after every batch
// with cloud traffic, the runtime compares the observed per-offload cloud
// latency (measured turnaround + serialization at the measured bandwidth,
// inflated by the server's piggybacked queue depth) against d, nudging
// Policy.Threshold up when the budget is blown (fewer instances qualify for
// the cloud) and down when there is headroom (reclaim cloud accuracy) — the
// paper's Algorithm 2 threshold, re-tuned live instead of fixed at startup.
// The same budget steers OffloadAuto's representation choice: raw while its
// measured upload fits the budget, the compact representation once it no
// longer does. d ≤ 0 disables the loop.
func (r *Runtime) SetLatencyBudget(d time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d < 0 {
		d = 0
	}
	r.budget = d
}

// Policy returns the active inference policy.
func (r *Runtime) Policy() core.Policy {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.policy
}

// SetThreshold updates the entropy threshold (e.g. for runtime adaptation).
func (r *Runtime) SetThreshold(th float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.policy.Threshold = th
}

// SetOffloadMode selects the upload representation for cloud offloads. The
// features and auto modes are rejected on a transport KNOWN to serve no
// features (see carries).
func (r *Runtime) SetOffloadMode(mode OffloadMode) error {
	switch mode {
	case OffloadRaw:
	case OffloadFeatures, OffloadAuto:
		if r.cloud != nil && !carries(r.cloud, protocol.RepFeatures) {
			return fmt.Errorf("edge: offload mode %s needs a feature-capable cloud client", mode)
		}
		// A cost model without FeatureBytes would charge feature uploads as
		// zero bytes/energy — reject the forced mode instead of silently
		// under-accounting. (Auto degrades to raw in this case.)
		if mode == OffloadFeatures && r.cost != nil && r.cost.FeatureBytes <= 0 {
			return fmt.Errorf("edge: offload mode features needs CostParams.FeatureBytes for accounting")
		}
	default:
		return fmt.Errorf("edge: invalid offload mode %d", int(mode))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mode = mode
	return nil
}

// OffloadMode reports the active offload mode.
func (r *Runtime) OffloadMode() OffloadMode {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.mode
}

// adaptSnapshot is the state one Classify call adapts with, copied under the
// mutex so concurrent SetThreshold/SetLatencyBudget/SetOffloadMode calls
// cannot tear it.
type adaptSnapshot struct {
	budget      time.Duration
	adapt       AdaptConfig
	lastRep     core.OffloadRep
	haveLastRep bool
}

// liveEstimate returns the transport's link estimate when it is mature enough
// to act on (MinSamples round trips and a measured bandwidth); a transport
// that measures nothing — the in-process client — never gets there. Only a
// batch with a cloud path wired asks.
func (r *Runtime) liveEstimate(snap adaptSnapshot) (linkest.Estimate, bool) {
	est := r.cloud.LinkEstimate()
	if est.Samples < snap.adapt.MinSamples || est.Mbps <= 0 {
		return linkest.Estimate{}, false
	}
	return est, true
}

// resolveRep turns the configured mode into the representation this batch
// uploads.
//
// Auto adapts to the link the transport actually measures: once the live
// estimate is mature, the per-attempt upload latency of each representation
// is RTT + serialization at the MEASURED bandwidth. With a latency budget,
// raw is preferred while it fits the budget (the full-fidelity input — a
// standalone cloud CNN sees its native representation) and the runtime
// falls back to the cheaper representation when the measured link no longer
// affords raw, with hysteresis so a borderline link doesn't flap. Without a
// budget — or until the estimator has enough samples — the choice comes
// from the static CostParams model (cheaper modeled upload energy, bytes on
// a degenerate WiFi model), as before. Auto still degrades to raw when the
// transport cannot carry features or no cost model exists (the comparison
// needs FeatureBytes).
func (r *Runtime) resolveRep(mode OffloadMode, snap adaptSnapshot) core.OffloadRep {
	switch mode {
	case OffloadFeatures:
		return core.RepFeatures
	case OffloadAuto:
		if !carries(r.cloud, protocol.RepFeatures) {
			return core.RepRaw
		}
		if r.cost == nil || r.cost.FeatureBytes <= 0 {
			return core.RepRaw
		}
		if est, ok := r.liveEstimate(snap); ok {
			return r.resolveRepLive(est, snap)
		}
		return r.resolveRepStatic()
	default:
		return core.RepRaw
	}
}

// resolveRepStatic is the pre-adaptation auto decision: the cheaper modeled
// upload through the static WiFi model.
func (r *Runtime) resolveRepStatic() core.OffloadRep {
	rawJ := r.cost.WiFi.UploadEnergyJ(r.cost.ImageBytes)
	featJ := r.cost.WiFi.UploadEnergyJ(r.cost.FeatureBytes)
	if rawJ == 0 && featJ == 0 {
		// Degenerate WiFi model: fall back to the byte comparison.
		if r.cost.FeatureBytes < r.cost.ImageBytes {
			return core.RepFeatures
		}
		return core.RepRaw
	}
	if featJ < rawJ {
		return core.RepFeatures
	}
	return core.RepRaw
}

// resolveRepLive is the measured-link auto decision (see resolveRep). It
// predicts from WIRE sizes — the estimator's bandwidth was measured from
// the frames the transport really ships.
func (r *Runtime) resolveRepLive(est linkest.Estimate, snap adaptSnapshot) core.OffloadRep {
	tRaw := est.RTT + est.UploadTime(r.cost.wireUploadBytes(core.RepRaw))
	tFeat := est.RTT + est.UploadTime(r.cost.wireUploadBytes(core.RepFeatures))
	if snap.budget > 0 {
		affordRaw := snap.budget
		if snap.haveLastRep && snap.lastRep == core.RepFeatures {
			// Hysteresis: flipping back to raw needs clear headroom.
			affordRaw = time.Duration(float64(snap.budget) * repHysteresis)
		}
		if tRaw <= affordRaw {
			return core.RepRaw
		}
	}
	// Over budget (or no budget): the cheaper measured upload wins; ties
	// favour raw, the paper's default.
	if tFeat < tRaw {
		return core.RepFeatures
	}
	return core.RepRaw
}

// observedCloudLatency is the controller's error signal: the measured cloud
// turnaround plus the serialization of this batch's representation at the
// measured bandwidth. Server queueing is NOT added here — the measured
// turnaround already paid it (the wait phase spans the server's queue and
// compute), so adding a queue-derived term would double-count steady-state
// congestion. The piggybacked queue depth acts as a leading TRIGGER in
// adaptThreshold instead.
func observedCloudLatency(est linkest.Estimate, uploadBytes int64) time.Duration {
	return est.RTT + est.UploadTime(uploadBytes)
}

// queueSaturated interprets the piggybacked backpressure signal: a parked
// queue well beyond the set actually being served means arrivals are
// outrunning service — latency is about to rise even though the RTT EWMA
// has not seen it yet. The 2× margin and the absolute floor keep the normal
// collector linger (a request or two parked while a batch fills) from
// reading as congestion. The signal exists when the server's collectors
// carry traffic (fleets of single-frame edges sharing a batching server);
// this runtime's own batched requests bypass the collectors, so for a
// batch-only workload congestion is seen through the measured turnaround
// instead.
func queueSaturated(load protocol.LoadStatus) bool {
	return load.QueueDepth > 2*load.Active && load.QueueDepth > 2
}

// adaptThreshold runs one controller step after a batch with cloud traffic:
// multiplicative increase of the entropy threshold when the observed cloud
// latency blows the budget — or when the server's piggybacked queue signals
// saturation before latency shows it (shed offload load early) — gentler
// decrease when there is headroom, a deadband in between. The threshold
// only moves if Classify actually talked to the cloud this batch — edge-only
// batches carry no fresh link information.
//
// shed marks a batch whose offload the server REFUSED: that is the
// definitive over-capacity signal — stronger than the queue heuristic, and
// meaningful even without a latency budget or a mature link estimate — so
// the step up runs unconditionally.
func (r *Runtime) adaptThreshold(snap adaptSnapshot, rep core.OffloadRep, shed bool) {
	step := 1 + adaptStepUp
	if !shed {
		est, ok := r.liveEstimate(snap)
		if !ok || snap.budget <= 0 || r.cost == nil {
			return
		}
		load, haveLoad := r.cloud.CloudLoad()
		obs := observedCloudLatency(est, r.cost.wireUploadBytes(rep))
		switch {
		case obs > snap.budget || (haveLoad && queueSaturated(load)):
		case obs < time.Duration(float64(snap.budget)*adaptHeadroom):
			step = 1 - adaptStepDown
		default:
			return // deadband: on target, hold
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.policy.Threshold = min(max(r.policy.Threshold*step, adaptMinThreshold), snap.adapt.MaxThreshold)
}

// Classify runs Algorithm 2 on a batch, updating the runtime's accounting.
// All cloud-qualifying instances of the batch are offloaded in one batched
// round trip (core.InferBatchedRep) in the representation the offload mode
// resolves to; failed instances are retried per the policy and then fall
// back to the edge decision per instance, with β, bytes and energy staying
// per-instance (every attempt transmitted, so every attempt is charged).
//
// When a latency budget is set (SetLatencyBudget) and the transport reports
// live link estimates, each batch that reached the cloud also runs one step
// of the closed-loop controller: the offload representation follows the
// measured link, and the entropy threshold is re-tuned toward the budget.
func (r *Runtime) Classify(x *tensor.Tensor) ([]core.Decision, error) {
	// Snapshot policy, mode and the adaptation state under the lock before
	// wiring the cloud path: SetThreshold/SetOffloadMode/SetLatencyBudget
	// mutate them concurrently.
	r.mu.Lock()
	pol := r.policy
	mode := r.mode
	snap := adaptSnapshot{
		budget:      r.budget,
		adapt:       r.adapt,
		lastRep:     r.lastRep,
		haveLastRep: r.haveLastRep,
	}
	shedHold := time.Now().Before(r.shedUntil)
	r.mu.Unlock()
	rep := core.RepRaw
	var cloudFn core.CloudBatchFunc
	shedHeld := time.Duration(0) // > 0: the cloud shed this batch; hold offloads this long
	// A live shed hold keeps the batch on the edge entirely: the server
	// asked for RetryAfter of silence, so qualifying instances take the edge
	// decision without a round trip (and without upload charges) until the
	// window expires — honoring the hint is what makes shedding cheaper
	// than letting every edge hammer a saturated server with rejections.
	if pol.UseCloud && r.cloud != nil && !shedHold {
		rep = r.resolveRep(mode, snap)
		// Capture shed replies on their way through to core's attempt loop:
		// core stops retrying on them, but only the runtime can honor the
		// RetryAfter hint (it spans batches, not attempts).
		inner := r.offload(r.cloud, rep)
		cloudFn = func(sub *tensor.Tensor) ([]int, []float64, []error, error) {
			preds, confs, errs, err := inner(sub)
			if errors.Is(err, ErrShed) {
				shedHeld = shedRetryAfter(err)
			}
			return preds, confs, errs, err
		}
	}
	decisions, err := r.net.InferBatchedRep(x, pol, rep, cloudFn)
	if err != nil {
		return nil, err
	}
	offloaded := false
	for i := range decisions {
		if decisions[i].CloudAttempts > 0 {
			offloaded = true
			break
		}
	}
	// Representation flips are an auto-mode metric (the trace of live
	// adaptation); manual SetOffloadMode switches are not counted.
	r.account(decisions, rep, cloudFn != nil && mode == OffloadAuto)
	if shedHeld > 0 {
		r.noteShed(shedHeld)
		// The shed feeds the threshold controller immediately: the entropy
		// threshold rises BEFORE the next batch ships, so fewer instances
		// even qualify once the hold expires.
		r.adaptThreshold(snap, rep, true)
	} else if offloaded {
		// One controller step per batch that actually exercised the link:
		// the estimator has fresh samples and the threshold error signal is
		// current.
		r.adaptThreshold(snap, rep, false)
	}
	return decisions, nil
}

// noteShed records one admission-control refusal: the event counter and the
// hold during which Classify keeps qualifying instances on the edge without
// attempting an upload — the exclusion-window rule the replica router and the
// chain client apply to a shed (shedRetryAfter, extendWindow).
func (r *Runtime) noteShed(hold time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.shedEvents++
	r.shedUntil = extendWindow(r.shedUntil, time.Now(), hold)
}

// account folds a batch of decisions into the counters. rep is the upload
// representation this batch used; trackRep reports whether this batch's
// representation was an auto-mode choice with a cloud path wired — only
// those update lastRep and count flips (Report.RepFlips traces live
// adaptation, not manual mode switches).
func (r *Runtime) account(decisions []core.Decision, rep core.OffloadRep, trackRep bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if trackRep {
		if r.haveLastRep && rep != r.lastRep {
			r.repFlips++
		}
		r.lastRep = rep
		r.haveLastRep = true
	}
	for _, d := range decisions {
		r.n++
		r.exits[d.Exit]++
		if d.CloudFailed {
			r.cloudFailures++
		}
		if d.Shed {
			// A shed instance is served by the edge with ZERO upload
			// charges: CloudAttempts stays 0 for refused offloads (see
			// core.Decision.Shed), so the byte/energy loop below never
			// bills it — only this counter records the detour.
			r.shedFallbacks++
		}
		if d.CloudAttempts > 0 {
			if rep == core.RepFeatures {
				r.featUploads += d.CloudAttempts
			} else {
				r.rawUploads += d.CloudAttempts
			}
		}
		if r.cost == nil {
			continue
		}
		// Every instance pays the main path (Algorithm 2 runs the main block
		// unconditionally).
		r.energyTotal.ComputeJ += r.cost.Compute.EnergyJ(r.cost.MainMACs)
		r.latencyCompute += r.cost.Compute.Latency(r.cost.MainMACs)
		if d.Exit == core.ExitExtension {
			r.energyTotal.ComputeJ += r.cost.Compute.EnergyJ(r.cost.ExtMACs)
			r.latencyCompute += r.cost.Compute.Latency(r.cost.ExtMACs)
		}
		// Uploads cost bytes and energy whether or not the cloud answered (a
		// failed attempt still transmitted), once per attempt.
		if d.CloudAttempts > 0 {
			up := r.cost.uploadBytes(rep)
			r.bytesSent += int64(d.CloudAttempts) * up
			r.energyTotal.CommJ += float64(d.CloudAttempts) * r.cost.WiFi.UploadEnergyJ(up)
			r.latencyComm += time.Duration(d.CloudAttempts) * r.cost.WiFi.UploadTime(up)
		}
	}
}

// Report snapshots the accumulated statistics.
func (r *Runtime) Report() Report {
	// The replica snapshot comes from the client's own lock; take it before
	// r.mu so the two locks never nest the other way anywhere.
	var replicas []ReplicaStats
	if rr, ok := r.cloud.(ReplicaReporter); ok {
		replicas = rr.ReplicaStats()
	}
	// Same lock-ordering rule for the chain snapshot: the chain client's own
	// lock is taken and released before r.mu.
	var chain *ChainStats
	if cr, ok := r.cloud.(ChainReporter); ok {
		st := cr.ChainStats()
		chain = &st
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	exits := make(map[core.ExitPoint]int, len(r.exits))
	for k, v := range r.exits {
		exits[k] = v
	}
	return Report{
		Replicas:       replicas,
		Chain:          chain,
		N:              r.n,
		Exits:          exits,
		CloudFailures:  r.cloudFailures,
		BytesSent:      r.bytesSent,
		RawUploads:     r.rawUploads,
		FeatureUploads: r.featUploads,
		ShedEvents:     r.shedEvents,
		ShedFallbacks:  r.shedFallbacks,
		Energy:         r.energyTotal,
		LatencyCompute: r.latencyCompute,
		LatencyComm:    r.latencyComm,
		Threshold:      r.policy.Threshold,
		RepFlips:       r.repFlips,
	}
}

// Reset clears the accounting (the policy and transports stay, and so does
// a live shed hold — it reflects the server's state, not this runtime's
// books).
func (r *Runtime) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n = 0
	r.exits = make(map[core.ExitPoint]int)
	r.cloudFailures = 0
	r.shedEvents = 0
	r.shedFallbacks = 0
	r.bytesSent = 0
	r.rawUploads = 0
	r.featUploads = 0
	r.energyTotal = energy.Breakdown{}
	r.latencyCompute = 0
	r.latencyComm = 0
	r.repFlips = 0
	r.haveLastRep = false
}
