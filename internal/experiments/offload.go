package experiments

// The offload-modes experiment quantifies the adaptive feature-vs-raw
// offload of Algorithm 2: against a partitioned cloud (raw model = tail ∘
// main block), accuracy is invariant under the upload representation — the
// predictions are bitwise identical — while bytes and communication energy
// are not. The table shows the raw, features and auto modes side by side;
// auto must match the cheaper column exactly.

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/energy"
)

// OffloadModesRow is one offload mode's measurement.
type OffloadModesRow struct {
	Mode           edge.OffloadMode
	Accuracy       float64
	Beta           float64
	BytesSent      int64
	RawUploads     int
	FeatureUploads int
	CommJ          float64
}

// OffloadModesResult is the bytes-vs-accuracy table across offload modes.
type OffloadModesResult struct {
	System       SystemKey
	Threshold    float64
	ImageBytes   int64
	FeatureBytes int64
	Rows         []OffloadModesRow
}

// OffloadModes runs the C100-A system's test set through the edge runtime
// in each offload mode against an in-process partitioned cloud.
func OffloadModes(ctx *Context) (*OffloadModesResult, error) {
	sys, err := ctx.System(C100A)
	if err != nil {
		return nil, err
	}
	tail, err := ctx.FeatureTail(sys)
	if err != nil {
		return nil, err
	}
	client := &edge.InProcClient{
		Model: cloud.Partitioned(sys.Edge.Main, tail),
		Tail:  tail,
	}

	// Feature upload size from the main block's actual output geometry.
	probe, _ := sys.Synth.Test.Batch([]int{0})
	feat := sys.Edge.Main.Forward(probe, false)
	featBytes := energy.FeatureBytes(int64(feat.Numel()))

	th := sys.ValEntropy.ThresholdMidpoint()
	cost := &edge.CostParams{
		MainMACs:     sys.MainMACs(),
		ExtMACs:      sys.ExtMACs(),
		Compute:      sys.Compute,
		WiFi:         sys.WiFi,
		ImageBytes:   sys.ImageBytes(),
		FeatureBytes: featBytes,
	}
	res := &OffloadModesResult{
		System:       sys.Key,
		Threshold:    th,
		ImageBytes:   cost.ImageBytes,
		FeatureBytes: cost.FeatureBytes,
	}
	test := sys.Synth.Test
	for _, mode := range []edge.OffloadMode{edge.OffloadRaw, edge.OffloadFeatures, edge.OffloadAuto} {
		rt, err := edge.NewRuntime(sys.Edge, core.Policy{Threshold: th, UseCloud: true}, client, cost)
		if err != nil {
			return nil, err
		}
		if err := rt.SetOffloadMode(mode); err != nil {
			return nil, err
		}
		correct := 0
		for start := 0; start < test.N; start += 64 {
			end := start + 64
			if end > test.N {
				end = test.N
			}
			idx := make([]int, end-start)
			for i := range idx {
				idx[i] = start + i
			}
			x, y := test.Batch(idx)
			dec, err := rt.Classify(x)
			if err != nil {
				return nil, err
			}
			for i, d := range dec {
				if d.Pred == y[i] {
					correct++
				}
			}
		}
		rep := rt.Report()
		res.Rows = append(res.Rows, OffloadModesRow{
			Mode:           mode,
			Accuracy:       float64(correct) / float64(rep.N),
			Beta:           rep.CloudFraction(),
			BytesSent:      rep.BytesSent,
			RawUploads:     rep.RawUploads,
			FeatureUploads: rep.FeatureUploads,
			CommJ:          rep.Energy.CommJ,
		})
	}
	return res, nil
}

// String renders the table.
func (r *OffloadModesResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Offload modes — bytes vs accuracy (%s, threshold %.3f, image %dB, features %dB)\n",
		r.System, r.Threshold, r.ImageBytes, r.FeatureBytes)
	w := tabwriter.NewWriter(&sb, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "mode\taccuracy\tbeta\tuploads (raw/feat)\tbytes\tcomm (mJ)")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%.2f%%\t%.1f%%\t%d/%d\t%d\t%.2f\n",
			row.Mode, 100*row.Accuracy, 100*row.Beta,
			row.RawUploads, row.FeatureUploads, row.BytesSent, 1000*row.CommJ)
	}
	w.Flush()
	sb.WriteString("accuracy is representation-invariant (partitioned cloud); auto tracks the cheaper upload\n")
	return sb.String()
}
