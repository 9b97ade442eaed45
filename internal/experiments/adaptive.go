package experiments

// The adaptive-link experiment demonstrates the closed loop that PR 4 adds
// on top of Algorithm 2: the edge runtime watches a LIVE uplink estimate
// (in production fed by the TCP transport's per-request samples; here a
// synthetic estimator the experiment steers through three link phases) and
// a per-offload latency budget. When the link degrades mid-run the runtime
// switches the upload representation from raw to the compact main-block
// features and walks the entropy threshold up (shedding offload load); when
// the link recovers it flips back and reclaims cloud accuracy — without a
// restart or reconfiguration. Costs use the true float32 wire sizes (what
// the transport actually ships), not the paper's 8-bit modeled image.

import (
	"fmt"
	"strings"
	"sync"
	"text/tabwriter"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/linkest"
	"github.com/meanet/meanet/internal/netsim"
)

// simEstimator is the in-process cloud behind a steerable link estimate: the
// experiment sets the link per phase, standing in for the TCP client's
// measured EWMA.
type simEstimator struct {
	*edge.InProcClient
	mu  sync.Mutex // guards est
	est linkest.Estimate
}

func (s *simEstimator) set(link netsim.Link) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.est = linkest.Estimate{RTT: link.Latency, Mbps: link.Mbps, Samples: 64}
}

func (s *simEstimator) LinkEstimate() linkest.Estimate {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.est
}

// AdaptiveLinkPhase is one link condition's measurement.
type AdaptiveLinkPhase struct {
	Name           string
	Link           netsim.Link
	RawUploads     int // upload attempts in this phase, by representation
	FeatureUploads int
	BytesSent      int64
	Beta           float64
	ThresholdEnd   float64       // where the controller left the threshold
	ObsLatency     time.Duration // per-offload cloud latency on this link
	RepFlipsTotal  int           // cumulative representation flips so far
}

// AdaptiveLinkResult is the closed-loop adaptation table.
type AdaptiveLinkResult struct {
	System       SystemKey
	Budget       time.Duration
	ImageBytes   int64 // float32 wire size of one raw upload
	FeatureBytes int64 // float32 wire size of one feature upload
	Phases       []AdaptiveLinkPhase
}

// AdaptiveLink runs the C100-B system's test set through the edge runtime in
// auto mode with a latency budget, against an in-process partitioned cloud,
// while the (synthetic) link estimate steps through good → degraded →
// recovered. C100-B is the system whose main block compresses: its feature
// tensor is the strictly smaller wire payload, so the degraded phase has a
// cheaper representation to fall back to.
func AdaptiveLink(ctx *Context) (*AdaptiveLinkResult, error) {
	sys, err := ctx.System(C100B)
	if err != nil {
		return nil, err
	}
	tail, err := ctx.FeatureTail(sys)
	if err != nil {
		return nil, err
	}
	est := &simEstimator{InProcClient: &edge.InProcClient{
		Model: cloud.Partitioned(sys.Edge.Main, tail),
		Tail:  tail,
	}}

	// True wire sizes: the transport ships float32 tensors either way.
	probe, _ := sys.Synth.Test.Batch([]int{0})
	feat := sys.Edge.Main.Forward(probe, false)
	imageBytes := int64(4 * probe.Numel())
	featBytes := int64(4 * feat.Numel())
	if featBytes >= imageBytes {
		return nil, fmt.Errorf("experiments: %s features (%dB) not smaller than images (%dB); no compact fallback to adapt to",
			sys.Key, featBytes, imageBytes)
	}

	th := sys.ValEntropy.ThresholdMidpoint()
	cost := &edge.CostParams{
		MainMACs:     sys.MainMACs(),
		ExtMACs:      sys.ExtMACs(),
		Compute:      sys.Compute,
		WiFi:         sys.WiFi,
		ImageBytes:   imageBytes,
		FeatureBytes: featBytes,
	}
	rt, err := edge.NewRuntime(sys.Edge, core.Policy{Threshold: th, UseCloud: true}, est, cost)
	if err != nil {
		return nil, err
	}
	if err := rt.SetOffloadMode(edge.OffloadAuto); err != nil {
		return nil, err
	}

	good := netsim.Link{Latency: 2 * time.Millisecond, Mbps: 20}
	degraded := netsim.Link{Latency: 25 * time.Millisecond, Mbps: 1}
	// Budget: midway between raw's upload latency on the two links — raw is
	// affordable on the good link, not on the degraded one.
	tRawGood := good.TransferTime(imageBytes)
	tRawBad := degraded.TransferTime(imageBytes)
	budget := (tRawGood + tRawBad) / 2
	rt.SetLatencyBudget(budget)

	res := &AdaptiveLinkResult{
		System:       sys.Key,
		Budget:       budget,
		ImageBytes:   imageBytes,
		FeatureBytes: featBytes,
	}
	test := sys.Synth.Test
	phases := []AdaptiveLinkPhase{
		{Name: "good", Link: good},
		{Name: "degraded", Link: degraded},
		{Name: "recovered", Link: good},
	}
	var prev edge.Report
	for _, ph := range phases {
		est.set(ph.Link)
		for start := 0; start < test.N; start += 64 {
			end := start + 64
			if end > test.N {
				end = test.N
			}
			idx := make([]int, end-start)
			for i := range idx {
				idx[i] = start + i
			}
			x, _ := test.Batch(idx)
			if _, err := rt.Classify(x); err != nil {
				return nil, err
			}
		}
		rep := rt.Report()
		ph.RawUploads = rep.RawUploads - prev.RawUploads
		ph.FeatureUploads = rep.FeatureUploads - prev.FeatureUploads
		ph.BytesSent = rep.BytesSent - prev.BytesSent
		if n := rep.N - prev.N; n > 0 {
			ph.Beta = float64(rep.Exits[core.ExitCloud]-prev.Exits[core.ExitCloud]) / float64(n)
		}
		ph.ThresholdEnd = rep.Threshold
		ph.RepFlipsTotal = rep.RepFlips
		// Per-offload latency of the representation this phase settled on.
		bytes := imageBytes
		if ph.FeatureUploads > ph.RawUploads {
			bytes = featBytes
		}
		ph.ObsLatency = ph.Link.TransferTime(bytes)
		res.Phases = append(res.Phases, ph)
		prev = rep
	}
	return res, nil
}

// String renders the table.
func (r *AdaptiveLinkResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Closed-loop link adaptation (%s, budget %v, raw %dB vs features %dB on the wire)\n",
		r.System, r.Budget.Round(time.Millisecond), r.ImageBytes, r.FeatureBytes)
	w := tabwriter.NewWriter(&sb, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "phase\tlink\tuploads (raw/feat)\tbytes\tbeta\tthreshold\toffload latency\tflips")
	for _, ph := range r.Phases {
		fmt.Fprintf(w, "%s\t%v+%gMbps\t%d/%d\t%d\t%.1f%%\t%.3f\t%v\t%d\n",
			ph.Name, ph.Link.Latency, ph.Link.Mbps,
			ph.RawUploads, ph.FeatureUploads, ph.BytesSent, 100*ph.Beta,
			ph.ThresholdEnd, ph.ObsLatency.Round(100*time.Microsecond), ph.RepFlipsTotal)
	}
	w.Flush()
	sb.WriteString("auto follows the live link: raw while it fits the budget, compact features when it does not;\n")
	sb.WriteString("the threshold controller sheds offload load over budget and reclaims it under\n")
	return sb.String()
}
