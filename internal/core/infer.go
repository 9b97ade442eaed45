package core

import (
	"errors"
	"fmt"

	"github.com/meanet/meanet/internal/tensor"
)

// ExitPoint identifies where an instance's inference terminated.
type ExitPoint int

// Exit points of Algorithm 2.
const (
	ExitMain ExitPoint = iota + 1
	ExitExtension
	ExitCloud
)

// String names the exit point.
func (e ExitPoint) String() string {
	switch e {
	case ExitMain:
		return "main"
	case ExitExtension:
		return "extension"
	case ExitCloud:
		return "cloud"
	default:
		return "unknown"
	}
}

// Decision records the outcome of Algorithm 2 for one instance.
type Decision struct {
	Pred     int
	MainPred int // the main exit's own prediction (ŷ1), whatever the route
	Exit     ExitPoint
	Entropy  float64 // main-exit prediction entropy (instance complexity)

	ConfMain float64 // max softmax score at the main exit
	ConfExt  float64 // max softmax score at the extension exit (0 if not run)

	// CloudFailed is set when the instance qualified for cloud offload but
	// every cloud attempt failed; the decision then comes from the edge
	// fallback.
	CloudFailed bool

	// Shed is set when the cloud REFUSED the instance's offload through
	// admission control (the cloud call's error wrapped ErrShed): the
	// decision comes from the edge fallback, like CloudFailed, but no
	// retries are burned — the server just said it is saturated, and
	// re-uploading immediately would feed the congestion — and no
	// CloudAttempts are charged: the modeled accounting bills offloads the
	// cloud admitted, while the refused frame shows up only in the
	// transport's wire counters.
	Shed bool

	// CloudAttempts counts the upload attempts this instance took part in
	// (0 = never offloaded, and shed attempts are excluded — see Shed).
	// With Policy.CloudRetries > 0 a failed instance is re-offloaded, and
	// every attempt transmitted — byte and energy accounting must charge
	// each one.
	CloudAttempts int
}

// CloudBatchFunc classifies a stacked [N,C,H,W] batch of complex instances
// on the cloud AI in one round trip. preds and confs are indexed by batch
// position. errs, when non-nil, carries per-instance failures: errs[i] != nil
// means instance i alone falls back to the edge. A non-nil err fails every
// instance of the batch (the whole upload was lost) — unless it wraps
// ErrShed, in which case the batch was refused by admission control and the
// attempt loop stops instead of retrying (see Decision.Shed).
type CloudBatchFunc func(x *tensor.Tensor) (preds []int, confs []float64, errs []error, err error)

// ErrShed is the sentinel a CloudBatchFunc error wraps when the cloud
// refused the whole batch through ADMISSION CONTROL (load shedding) rather
// than failing in transport: the server is saturated and answered with a
// shed frame instead of parking the work. The attempt loop does not retry a
// shed — the refusal is deliberate, and re-uploading the same batch would
// feed the congestion the server is trying to relieve; the edge runtime
// honors the server's retry-after hint across batches instead
// (edge.ShedError carries it).
var ErrShed = errors.New("core: cloud shed the offload")

// Policy configures Algorithm 2.
type Policy struct {
	// Threshold is the entropy above which an instance is "complex" and is
	// sent to the cloud (when UseCloud is set and a cloud call is available).
	Threshold float64
	// UseCloud enables the cloud branch.
	UseCloud bool
	// CloudRetries is the number of extra batched attempts granted to
	// instances whose cloud call failed: the failed subset of the batch is
	// gathered and re-offloaded, and only instances still failing after the
	// last attempt fall back to the edge exit. 0 keeps the single-attempt
	// behaviour.
	CloudRetries int
	// Detector, when non-nil, replaces the default easy/hard routing (main
	// argmax ∈ hard set) with the learned binary detector — the paper's
	// optional variant (§III-B).
	Detector *HardnessDetector
}

// OffloadRep selects which representation of a cloud-qualifying instance the
// batched cloud call receives — the paper's two edge-cloud collaboration
// modes (§III-C).
type OffloadRep int

// Offload representations.
const (
	// RepRaw ships the gathered raw sub-batch ([k,C,H,W] pixels).
	RepRaw OffloadRep = iota
	// RepFeatures ships the gathered main-block feature sub-batch. The edge
	// already computed the features during MainForward, so this
	// representation costs no extra edge compute — only its (often smaller)
	// upload.
	RepFeatures
)

// String names the representation.
func (r OffloadRep) String() string {
	switch r {
	case RepRaw:
		return "raw"
	case RepFeatures:
		return "features"
	default:
		return fmt.Sprintf("offloadrep(%d)", int(r))
	}
}

// InferBatchedRep runs Algorithm 2 on a batch: every instance passes through
// the main block; high-entropy ("complex") instances go to the cloud;
// instances predicted as hard classes take the extension path, with the more
// confident of the two edge exits winning; everything else exits at the main
// block.
//
// The cloud-qualifying instances of the batch are gathered — exactly like the
// extension path gathers hard instances — and shipped to the cloud in at most
// ONE CloudBatchFunc call per input batch (plus Policy.CloudRetries
// re-offloads of failed instances). Instances whose slot of the batched call
// failed (or the whole call, if it errored) fall back to the edge decision
// individually; batching never turns a partial failure into a whole-batch
// error.
//
// rep selects what is shipped: RepRaw gathers the raw sub-batch, RepFeatures
// the main-block feature sub-batch the edge computed anyway (§III-C "sending
// features", at zero extra edge compute). The cloud transport must match the
// representation — a feature upload needs a partitioned-network tail on the
// server. Predictions never depend on the representation choice when the
// cloud's raw model is the composition of the edge main block and the tail
// (see cloud.Partitioned); only bytes, energy and latency differ.
func (m *MEANet) InferBatchedRep(x *tensor.Tensor, pol Policy, rep OffloadRep, cloud CloudBatchFunc) ([]Decision, error) {
	if x.Dims() != 4 {
		return nil, fmt.Errorf("core: Infer expects NCHW input, got %v", x.Shape())
	}
	if rep != RepRaw && rep != RepFeatures {
		return nil, fmt.Errorf("core: invalid offload representation %d", int(rep))
	}
	n := x.Dim(0)
	if n == 0 {
		return []Decision{}, nil // nothing to classify; skip the forward pass
	}
	feat, logits := m.MainForward(x, false)
	probs := tensor.Softmax(logits)

	var detectorFlags []bool
	if pol.Detector != nil {
		detectorFlags = pol.Detector.Predict(feat)
	}
	decisions := make([]Decision, n)
	var cloudIdx []int
	for i := 0; i < n; i++ {
		row := probs.Row(i)
		pred1 := argmax(row)
		d := &decisions[i]
		d.Pred = pred1
		d.MainPred = pred1
		d.Exit = ExitMain
		d.Entropy = tensor.Entropy(row)
		d.ConfMain = float64(row[pred1])
		if pol.UseCloud && cloud != nil && d.Entropy > pol.Threshold {
			cloudIdx = append(cloudIdx, i)
		}
	}

	if len(cloudIdx) > 0 {
		src := x
		if rep == RepFeatures {
			src = feat
		}
		// Attempt loop: the first pass uploads every qualifying instance;
		// each retry gathers only the instances that failed (their slot or
		// the whole call) and re-offloads them as one smaller batch.
		pending := cloudIdx
		for attempt := 0; len(pending) > 0 && attempt <= pol.CloudRetries; attempt++ {
			preds, confs, errs, err := cloud(gatherSamples(src, pending))
			if errors.Is(err, ErrShed) {
				// Admission control refused the batch: every pending
				// instance takes the edge fallback NOW, with no retries
				// burned and no attempts charged (the offload was refused,
				// not served — see Decision.Shed).
				for _, i := range pending {
					decisions[i].Shed = true
				}
				pending = nil
				break
			}
			if err == nil && (len(preds) != len(pending) || len(confs) != len(pending)) {
				err = fmt.Errorf("core: cloud batch returned %d/%d results for %d instances",
					len(preds), len(confs), len(pending))
			}
			if err == nil && errs != nil && len(errs) != len(pending) {
				err = fmt.Errorf("core: cloud batch returned %d errors for %d instances",
					len(errs), len(pending))
			}
			var failed []int
			for bi, i := range pending {
				d := &decisions[i]
				d.CloudAttempts++
				if err != nil || (errs != nil && errs[bi] != nil) {
					failed = append(failed, i)
					continue
				}
				d.Pred = preds[bi]
				d.Exit = ExitCloud
			}
			pending = failed
		}
		for _, i := range pending {
			decisions[i].CloudFailed = true // fall through to the edge path
		}
	}

	var hardIdx []int
	for i := 0; i < n; i++ {
		d := &decisions[i]
		if d.Exit == ExitCloud {
			continue
		}
		isHard := m.Dict != nil && m.Dict.IsHard(d.MainPred)
		if detectorFlags != nil {
			isHard = detectorFlags[i]
		}
		if m.Dict != nil && m.ExtExit != nil && isHard {
			hardIdx = append(hardIdx, i)
		}
	}

	if len(hardIdx) > 0 {
		subX := gatherSamples(x, hardIdx)
		subF := gatherSamples(feat, hardIdx)
		extLogits, err := m.ExtForward(subX, subF, false)
		if err != nil {
			return nil, err
		}
		extProbs := tensor.Softmax(extLogits)
		for bi, i := range hardIdx {
			row := extProbs.Row(bi)
			pred2 := argmax(row)
			d := &decisions[i]
			d.ConfExt = float64(row[pred2])
			// Select the more confident exit (§III-B); ties favour the main
			// block, which saw all classes.
			if d.ConfExt > d.ConfMain {
				d.Pred = m.Dict.FromHard[pred2]
			}
			d.Exit = ExitExtension
		}
	}
	return decisions, nil
}

// InferDataset runs InferBatchedRep (raw uploads) over a whole dataset in
// mini-batches, returning one decision per instance in dataset order.
func (m *MEANet) InferDataset(ds datasetView, batch int, pol Policy, cloud CloudBatchFunc) ([]Decision, error) {
	if batch < 1 {
		return nil, errors.New("core: batch must be ≥1")
	}
	out := make([]Decision, 0, ds.Len())
	for start := 0; start < ds.Len(); start += batch {
		end := start + batch
		if end > ds.Len() {
			end = ds.Len()
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		x, _ := ds.Batch(idx)
		ds64, err := m.InferBatchedRep(x, pol, RepRaw, cloud)
		if err != nil {
			return nil, err
		}
		out = append(out, ds64...)
	}
	return out, nil
}

// datasetView is the subset of data.Dataset Infer needs; declared locally to
// keep the dependency direction explicit.
type datasetView interface {
	Batch(indices []int) (*tensor.Tensor, []int)
	Len() int
}

func argmax(row []float32) int {
	best, bestV := 0, row[0]
	for j, v := range row[1:] {
		if v > bestV {
			best, bestV = j+1, v
		}
	}
	return best
}

// gatherSamples copies the selected leading-dimension slices into a new
// tensor.
func gatherSamples(t *tensor.Tensor, idx []int) *tensor.Tensor {
	shape := append([]int{len(idx)}, t.Shape()[1:]...)
	out := tensor.New(shape...)
	sub := t.Numel() / t.Dim(0)
	for bi, i := range idx {
		copy(out.Data()[bi*sub:(bi+1)*sub], t.Sample(i).Data())
	}
	return out
}
