package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"text/tabwriter"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/energy"
	"github.com/meanet/meanet/internal/metrics"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// Fig2Result is the confusion matrix of the main block on the CIFAR-like
// test set: the paper's evidence that class-wise complexity exists (some
// classes have visibly lower precision).
type Fig2Result struct {
	Key       SystemKey
	Confusion *metrics.Confusion
	// FDRSpread is max−min per-class FDR: > 0 means class-wise complexity.
	FDRSpread float64
}

// Fig2 evaluates the main block on the test set.
func Fig2(ctx *Context) (*Fig2Result, error) {
	sys, err := ctx.System(C100A)
	if err != nil {
		return nil, err
	}
	cm, _, err := core.EvaluateMain(sys.Edge, sys.Synth.Test, 64)
	if err != nil {
		return nil, err
	}
	lo, hi := 1.0, 0.0
	for c := 0; c < cm.K; c++ {
		f := cm.FDR(c)
		lo = math.Min(lo, f)
		hi = math.Max(hi, f)
	}
	return &Fig2Result{Key: C100A, Confusion: cm, FDRSpread: hi - lo}, nil
}

// String renders the matrix with a per-class precision footer.
func (r *Fig2Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig 2 — confusion matrix of the main block (%s)\n", r.Key)
	sb.WriteString(r.Confusion.String())
	fmt.Fprintf(&sb, "accuracy %.2f%%, per-class FDR spread %.3f\n",
		100*r.Confusion.Accuracy(), r.FDRSpread)
	return sb.String()
}

// Fig3Result reproduces the complexity-category definition: classes ranked
// by class-wise complexity (FDR) and test instances split into
// easy/hard/complex using the validation entropy threshold midpoint.
type Fig3Result struct {
	Key        SystemKey
	ClassFDR   []float64 // indexed by class
	HardSet    map[int]bool
	Threshold  float64 // midpoint of (µ_correct, µ_wrong)
	EasyN      int     // easy-class instances with entropy ≤ threshold
	HardN      int     // hard-class instances with entropy ≤ threshold
	ComplexN   int     // instances with entropy > threshold (either side)
	MeanedLoHi [2]float64
}

// Fig3 categorizes the test set.
func Fig3(ctx *Context) (*Fig3Result, error) {
	sys, err := ctx.System(C100A)
	if err != nil {
		return nil, err
	}
	th := sys.ValEntropy.ThresholdMidpoint()
	lo, hi, _ := sys.ValEntropy.ThresholdRange()
	res := &Fig3Result{
		Key:        C100A,
		HardSet:    sys.Edge.Dict.HardSet(),
		Threshold:  th,
		MeanedLoHi: [2]float64{lo, hi},
	}
	res.ClassFDR = make([]float64, sys.ValConfusion.K)
	for c := range res.ClassFDR {
		res.ClassFDR[c] = sys.ValConfusion.FDR(c)
	}
	decisions, err := sys.Edge.InferDataset(sys.Synth.Test, 64, core.Policy{UseCloud: false}, nil)
	if err != nil {
		return nil, err
	}
	for i, d := range decisions {
		switch {
		case d.Entropy > th:
			res.ComplexN++
		case res.HardSet[sys.Synth.Test.Y[i]]:
			res.HardN++
		default:
			res.EasyN++
		}
	}
	return res, nil
}

// String renders the category breakdown.
func (r *Fig3Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig 3 — easy/hard/complex categories (%s)\n", r.Key)
	type cls struct {
		id  int
		fdr float64
	}
	ranked := make([]cls, len(r.ClassFDR))
	for i, f := range r.ClassFDR {
		ranked[i] = cls{i, f}
	}
	sort.Slice(ranked, func(a, b int) bool { return ranked[a].fdr > ranked[b].fdr })
	sb.WriteString("classes by FDR (class-wise complexity, hardest first):\n")
	for _, c := range ranked {
		tag := "easy"
		if r.HardSet[c.id] {
			tag = "HARD"
		}
		fmt.Fprintf(&sb, "  class %2d  FDR %.3f  %s\n", c.id, c.fdr, tag)
	}
	total := r.EasyN + r.HardN + r.ComplexN
	fmt.Fprintf(&sb, "validation entropy means: correct %.3f, wrong %.3f; threshold %.3f\n",
		r.MeanedLoHi[0], r.MeanedLoHi[1], r.Threshold)
	fmt.Fprintf(&sb, "test instances: easy %d (%.1f%%), hard %d (%.1f%%), complex %d (%.1f%%)\n",
		r.EasyN, pct(r.EasyN, total), r.HardN, pct(r.HardN, total), r.ComplexN, pct(r.ComplexN, total))
	return sb.String()
}

// Fig5Result gives the four error-type proportions for both datasets with
// half of the classes hard.
type Fig5Result struct {
	CIFAR    metrics.ErrorTypes
	ImageNet metrics.ErrorTypes
}

// Fig5 classifies the main block's test errors.
func Fig5(ctx *Context) (*Fig5Result, error) {
	out := &Fig5Result{}
	for _, item := range []struct {
		key SystemKey
		dst *metrics.ErrorTypes
	}{
		{C100A, &out.CIFAR},
		{ImageNetResNetB, &out.ImageNet},
	} {
		sys, err := ctx.System(item.key)
		if err != nil {
			return nil, err
		}
		cm, _, err := core.EvaluateMain(sys.Edge, sys.Synth.Test, 64)
		if err != nil {
			return nil, err
		}
		*item.dst = cm.ClassifyErrors(sys.Edge.Dict.HardSet())
	}
	return out, nil
}

// String renders both pies as rows.
func (r *Fig5Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 5 — proportions of the four error types (half of classes hard)\n")
	w := tabwriter.NewWriter(&sb, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "dataset\tI easy→hard\tII hard→easy\tIII easy→easy\tIV hard→hard\terrors")
	for _, row := range []struct {
		name string
		et   metrics.ErrorTypes
	}{
		{"SynthC100", r.CIFAR},
		{"SynthImageNet", r.ImageNet},
	} {
		fmt.Fprintf(w, "%s\t%.0f%%\t%.0f%%\t%.0f%%\t%.0f%%\t%d\n",
			row.name, 100*row.et.EasyAsHard, 100*row.et.HardAsEasy,
			100*row.et.EasyAsEasy, 100*row.et.HardAsHard, row.et.Errors)
	}
	w.Flush()
	sb.WriteString("paper: type IV dominates (45% CIFAR-100 / 54% ImageNet)\n")
	return sb.String()
}

// Fig6Row is one bar pair of Fig 6.
type Fig6Row struct {
	Name     string
	OursMiB  float64
	JointMiB float64
}

// Fig6Result is the training-memory comparison at batch size 128.
type Fig6Result struct {
	Batch int
	Rows  []Fig6Row
}

// Fig6 models training memory for the four paper-scale configurations.
func Fig6(ctx *Context) (*Fig6Result, error) {
	pms, err := PaperScaleModels()
	if err != nil {
		return nil, err
	}
	const batch = 128
	res := &Fig6Result{Batch: batch}
	for _, pm := range pms {
		p, err := ProfilePaperModel(pm)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Fig6Row{
			Name:     pm.Name,
			OursMiB:  p.BlockwiseTrainingMemory(batch).MiB(),
			JointMiB: p.JointTrainingMemory(batch).MiB(),
		})
	}
	return res, nil
}

// String renders the comparison.
func (r *Fig6Result) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Fig 6 — modeled training memory, batch %d (paper-scale models)\n", r.Batch)
	w := tabwriter.NewWriter(&sb, 0, 4, 2, ' ', 0)
	fmt.Fprintln(w, "model\tours (MiB)\tjoint opt (MiB)\tsaving")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.0f%%\n",
			row.Name, row.OursMiB, row.JointMiB, 100*(1-row.OursMiB/row.JointMiB))
	}
	w.Flush()
	sb.WriteString("paper: 801/1557, 827/2129, 3093/7489 (ResNet18), 9882/13998 (MobileNetV2) MiB\n")
	return sb.String()
}

// Fig7Point is one threshold sample of the accuracy / cloud-fraction sweep.
type Fig7Point struct {
	Threshold     float64
	Accuracy      float64
	CloudFraction float64
}

// Fig7Series is the sweep for one system.
type Fig7Series struct {
	Key          SystemKey
	EdgeOnlyAcc  float64
	CloudOnlyAcc float64
	Points       []Fig7Point
}

// Fig7Result is the distributed-inference sweep of Fig 7.
type Fig7Result struct {
	Series []Fig7Series
}

// Fig7Thresholds is the sweep grid (the paper plots 0–3).
var Fig7Thresholds = []float64{0, 0.25, 0.5, 0.8, 1.0, 1.2, 1.5, 2.0, 3.0}

// Fig7 sweeps the entropy threshold for the three systems the paper plots.
func Fig7(ctx *Context) (*Fig7Result, error) {
	res := &Fig7Result{}
	for _, key := range []SystemKey{C100A, C100B, ImageNetResNetB} {
		sys, err := ctx.System(key)
		if err != nil {
			return nil, err
		}
		series, err := sweepThresholds(sys, Fig7Thresholds)
		if err != nil {
			return nil, err
		}
		res.Series = append(res.Series, *series)
	}
	return res, nil
}

// cloudOffload answers Algorithm 2's offloads with the system's cloud AI in
// process: one forward over the gathered sub-batch, then the server's
// softmax-argmax per row, so predictions match a served cloud bit for bit.
func cloudOffload(sys *System) core.CloudBatchFunc {
	return func(sub *tensor.Tensor) ([]int, error) {
		logits := sys.Cloud.Logits(sub, false)
		preds := make([]int, sub.Dim(0))
		for i := range preds {
			preds[i] = int(protocol.ResultOf(logits.Row(i)).Pred)
		}
		return preds, nil
	}
}

// sweepThresholds measures accuracy and β across thresholds for a system.
func sweepThresholds(sys *System, thresholds []float64) (*Fig7Series, error) {
	series := &Fig7Series{Key: sys.Key}

	// Edge-only reference.
	rep, err := core.Evaluate(sys.Edge, sys.Synth.Test, 64, core.Policy{UseCloud: false}, nil)
	if err != nil {
		return nil, err
	}
	series.EdgeOnlyAcc = rep.Overall

	// Cloud-only reference.
	cloudCM, err := core.EvaluateClassifier(sys.Cloud, sys.Synth.Test, 64)
	if err != nil {
		return nil, err
	}
	series.CloudOnlyAcc = cloudCM.Accuracy()

	cloudFn := cloudOffload(sys)
	for _, th := range thresholds {
		rep, err := core.Evaluate(sys.Edge, sys.Synth.Test, 64,
			core.Policy{Threshold: th, UseCloud: true}, cloudFn)
		if err != nil {
			return nil, err
		}
		beta := float64(rep.ExitCounts[core.ExitCloud]) / float64(rep.N)
		series.Points = append(series.Points, Fig7Point{
			Threshold:     th,
			Accuracy:      rep.Overall,
			CloudFraction: beta,
		})
	}
	return series, nil
}

// String renders both panels of Fig 7.
func (r *Fig7Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 7 — distributed inference: accuracy and % sent to cloud vs threshold\n")
	for _, s := range r.Series {
		fmt.Fprintf(&sb, "%s  (edge-only %.2f%%, cloud-only %.2f%%)\n",
			s.Key, 100*s.EdgeOnlyAcc, 100*s.CloudOnlyAcc)
		w := tabwriter.NewWriter(&sb, 0, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  threshold\taccuracy\tsent to cloud")
		for _, p := range s.Points {
			fmt.Fprintf(w, "  %.2f\t%.2f%%\t%.1f%%\n", p.Threshold, 100*p.Accuracy, 100*p.CloudFraction)
		}
		w.Flush()
	}
	return sb.String()
}

// Fig8Row is one bar of Fig 8.
type Fig8Row struct {
	Label    string
	ComputeJ float64
	CommJ    float64
}

// TotalJ sums the bar.
func (r Fig8Row) TotalJ() float64 { return r.ComputeJ + r.CommJ }

// Fig8Result is the total edge-energy comparison: edge-only, four
// thresholds, cloud-only — for both datasets.
type Fig8Result struct {
	CIFAR     []Fig8Row
	ImageNet  []Fig8Row
	CIFARN    int
	ImageNetN int
}

// Fig8Thresholds are the threshold bars the paper shows.
var Fig8Thresholds = []float64{1.2, 1.0, 0.8, 0.5}

// Fig8 combines paper-scale per-image energies (from the calibrated cost
// models and paper-scale MAC profiles) with the exit mix measured on the
// trained synthetic systems at each threshold. Instance counts match the
// paper's test sets (10k CIFAR-100 / 50k ImageNet).
func Fig8(ctx *Context) (*Fig8Result, error) {
	pms, err := PaperScaleModels()
	if err != nil {
		return nil, err
	}
	profiles := make(map[string]struct {
		mainJ, extJ float64
	})
	wifi := energy.DefaultWiFi()
	for _, pm := range pms {
		p, err := ProfilePaperModel(pm)
		if err != nil {
			return nil, err
		}
		cmp := energy.EdgeGPUCIFAR()
		if strings.Contains(pm.Name, "ImageNet") {
			cmp = energy.EdgeGPUImageNet()
		}
		profiles[pm.Name] = struct{ mainJ, extJ float64 }{
			mainJ: cmp.EnergyJ(p.Fixed.MACs),
			extJ:  cmp.EnergyJ(p.Trained.MACs),
		}
	}

	res := &Fig8Result{CIFARN: 10000, ImageNetN: 50000}
	for _, cfgRow := range []struct {
		key        SystemKey
		paperModel string
		n          int
		imgBytes   int64
		dst        *[]Fig8Row
	}{
		{C100A, "CIFAR-100, ResNet32 A", 10000, energy.RawImageBytes(32, 32, 3), &res.CIFAR},
		{ImageNetResNetB, "ImageNet, ResNet18 B", 50000, energy.RawImageBytes(224, 224, 3), &res.ImageNet},
	} {
		sys, err := ctx.System(cfgRow.key)
		if err != nil {
			return nil, err
		}
		pi := profiles[cfgRow.paperModel]
		uploadJ := wifi.UploadEnergyJ(cfgRow.imgBytes)
		n := float64(cfgRow.n)

		mix := func(th float64, useCloud bool) (fExt, fCloud float64, err error) {
			var fn core.CloudBatchFunc
			if useCloud {
				fn = cloudOffload(sys)
			}
			rep, err := core.Evaluate(sys.Edge, sys.Synth.Test, 64,
				core.Policy{Threshold: th, UseCloud: useCloud}, fn)
			if err != nil {
				return 0, 0, err
			}
			return float64(rep.ExitCounts[core.ExitExtension]) / float64(rep.N),
				float64(rep.ExitCounts[core.ExitCloud]) / float64(rep.N), nil
		}

		// Edge-only bar.
		fExt, _, err := mix(0, false)
		if err != nil {
			return nil, err
		}
		*cfgRow.dst = append(*cfgRow.dst, Fig8Row{
			Label:    "edge only",
			ComputeJ: n * (pi.mainJ + fExt*pi.extJ),
		})
		// Threshold bars.
		for _, th := range Fig8Thresholds {
			fExt, fCloud, err := mix(th, true)
			if err != nil {
				return nil, err
			}
			*cfgRow.dst = append(*cfgRow.dst, Fig8Row{
				Label:    fmt.Sprintf("thre=%.1f", th),
				ComputeJ: n * (pi.mainJ + fExt*pi.extJ),
				CommJ:    n * fCloud * uploadJ,
			})
		}
		// Cloud-only bar: upload everything, no edge inference.
		*cfgRow.dst = append(*cfgRow.dst, Fig8Row{
			Label: "cloud only",
			CommJ: n * uploadJ,
		})
	}
	return res, nil
}

// String renders both panels.
func (r *Fig8Result) String() string {
	var sb strings.Builder
	sb.WriteString("Fig 8 — total energy at the edge (communication + computation)\n")
	render := func(name string, n int, rows []Fig8Row) {
		fmt.Fprintf(&sb, "%s (%d images)\n", name, n)
		w := tabwriter.NewWriter(&sb, 0, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  mode\tcompute (J)\tcomm (J)\ttotal (J)")
		for _, row := range rows {
			fmt.Fprintf(w, "  %s\t%.1f\t%.1f\t%.1f\n", row.Label, row.ComputeJ, row.CommJ, row.TotalJ())
		}
		w.Flush()
	}
	render("SynthC100 / ResNet32-A energy model", r.CIFARN, r.CIFAR)
	render("SynthImageNet / ResNet18-B energy model", r.ImageNetN, r.ImageNet)
	return sb.String()
}

func pct(part, total int) float64 {
	if total == 0 {
		return 0
	}
	return 100 * float64(part) / float64(total)
}
