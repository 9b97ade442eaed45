package core

import (
	"errors"
	"fmt"
	"sync"

	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/protocol"
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
	// admission control (the cloud call's error wrapped protocol.ErrShed):
	// the decision comes from the edge fallback, like CloudFailed, but no
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
// on the cloud AI in one round trip, returning one label per batch position.
// A non-nil err fails every instance of the batch (the whole upload was lost)
// — unless it wraps protocol.ErrShed, in which case the batch was refused by
// admission control and the attempt loop stops instead of retrying (see
// Decision.Shed); the edge runtime honors the server's retry-after hint
// across batches.
type CloudBatchFunc func(x *tensor.Tensor) (preds []int, err error)

// Policy configures Algorithm 2.
type Policy struct {
	// Threshold is the entropy above which an instance is "complex" and is
	// sent to the cloud (when UseCloud is set and a cloud call is available).
	Threshold float64
	// UseCloud enables the cloud branch.
	UseCloud bool
	// CloudRetries is the number of extra batched attempts granted to
	// instances whose cloud call failed: the batch is re-offloaded, and only
	// if the last attempt fails too do its instances fall back to the edge
	// exit. 0 keeps the single-attempt behaviour.
	CloudRetries int
	// Detector, when non-nil, replaces the default easy/hard routing (main
	// argmax ∈ hard set) with the learned binary detector — the paper's
	// optional variant (§III-B).
	Detector *HardnessDetector
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
// re-offloads when the call fails). Instances whose call failed fall back to
// the edge decision; a cloud failure never becomes an error of the batch.
//
// rep selects what is shipped (§III-C): protocol.RepRaw gathers the raw
// sub-batch, protocol.RepFeatures the main-block feature sub-batch the edge
// computed anyway ("sending features", at zero extra edge compute). The cloud
// transport must match the representation — a feature upload needs a
// partitioned-network tail on the server. Predictions never depend on the
// representation choice when the cloud's raw model is the composition of the
// edge main block and the tail (see cloud.Partitioned); only bytes, energy
// and latency differ.
//
// Every image's eval forward is bitwise independent of its batch-mates, so
// the batch is split into contiguous chunks of images, one per kernel
// worker, and runs in three phases:
//  1. each chunk runs the main block and its exit on a view of its images,
//     fills its own decisions and marks its hard instances (tensor.ParFor
//     over the chunks);
//  2. serially, the cloud-qualifying instances are gathered from x or from
//     the chunks' features in ascending index order, and each attempt is
//     one CloudBatchFunc call;
//  3. the hard instances the cloud did not serve, gathered in ascending
//     index order, are split evenly across the workers again (ParFor over
//     them), and each part runs the adaptive and extension blocks.
//
// The kernels' own forks inside a phase find the helpers taken and run
// inline, so a batch forks twice instead of once per layer. Decisions and
// the tensor the cloud receives are bitwise those of a one-worker run.
func (m *MEANet) InferBatchedRep(x *tensor.Tensor, pol Policy, rep protocol.Rep, cloud CloudBatchFunc) ([]Decision, error) {
	if x.Dims() != 4 {
		return nil, fmt.Errorf("core: Infer expects NCHW input, got %v", x.Shape())
	}
	if rep != protocol.RepRaw && rep != protocol.RepFeatures {
		return nil, fmt.Errorf("core: invalid offload representation %d", int(rep))
	}
	n := x.Dim(0)
	if n == 0 {
		return []Decision{}, nil // nothing to classify; skip the forward pass
	}
	decisions := make([]Decision, n)
	chunks := splitBatch(x)
	tensor.ParFor(len(chunks), func(c0, c1 int) {
		for c := c0; c < c1; c++ {
			m.mainChunk(&chunks[c], decisions, pol.Detector)
		}
	})

	var cloudIdx []int
	if pol.UseCloud && cloud != nil {
		for i := range decisions {
			if decisions[i].Entropy > pol.Threshold {
				cloudIdx = append(cloudIdx, i)
			}
		}
	}
	if len(cloudIdx) > 0 {
		sub := gatherRows(x, chunks, cloudIdx, rep)
		// Attempt loop: a call succeeds or fails as one, so every attempt
		// ships the whole gathered set.
		served, shed := false, false
		for attempt := 0; !served && attempt <= pol.CloudRetries; attempt++ {
			preds, err := cloud(sub)
			// Admission control refused the batch: every instance takes the
			// edge fallback NOW, with no retries burned and no attempts
			// charged (the offload was refused, not served — see
			// Decision.Shed).
			if shed = errors.Is(err, protocol.ErrShed); shed {
				break
			}
			served = err == nil && len(preds) == len(cloudIdx)
			for bi, i := range cloudIdx {
				d := &decisions[i]
				d.CloudAttempts++
				if served {
					d.Pred = preds[bi]
					d.Exit = ExitCloud
				}
			}
		}
		for _, i := range cloudIdx {
			decisions[i].Shed = shed
			decisions[i].CloudFailed = !served && !shed // fall through to the edge path
		}
	}

	var hardIdx []int
	for _, c := range chunks {
		for i := c.start; c.hard != nil && i < c.end; i++ {
			if c.hard[i-c.start] && decisions[i].Exit != ExitCloud {
				hardIdx = append(hardIdx, i)
			}
		}
	}
	var (
		mu     sync.Mutex
		extErr error
	)
	tensor.ParFor(len(hardIdx), func(s, e int) {
		if err := m.extPart(x, chunks, hardIdx[s:e], decisions); err != nil {
			mu.Lock()
			extErr = err
			mu.Unlock()
		}
	})
	if extErr != nil {
		return nil, extErr
	}
	return decisions, nil
}

// batchChunk is one contiguous run [start, end) of a batch's images: a view
// of them, and what phase 1 computed for them — their main-block features
// and whether each is to take the extension path unless the cloud serves it.
type batchChunk struct {
	start, end int
	x, feat    *tensor.Tensor
	hard       []bool
}

// splitBatch cuts x into the chunks tensor.ParFor would fork over its
// images: ceil(n/w) images each for w = min(Parallelism, n) workers.
func splitBatch(x *tensor.Tensor) []batchChunk {
	n := x.Dim(0)
	workers := min(tensor.Parallelism(), n)
	size := (n + workers - 1) / workers
	shape := x.Shape()
	per := x.Numel() / n
	chunks := make([]batchChunk, 0, workers)
	for s := 0; s < n; s += size {
		e := min(s+size, n)
		view := tensor.FromSlice(x.Data()[s*per:e*per], e-s, shape[1], shape[2], shape[3])
		chunks = append(chunks, batchChunk{start: s, end: e, x: view})
	}
	return chunks
}

// mainChunk runs the main block and its exit on c's images, fills their
// decisions as main exits, and marks the ones the hard-class dictionary (or
// the detector, when set) routes to the extension path.
func (m *MEANet) mainChunk(c *batchChunk, decisions []Decision, det *HardnessDetector) {
	feat, logits := m.MainForward(c.x, false)
	c.feat = feat
	probs := tensor.Softmax(logits)
	for i := c.start; i < c.end; i++ {
		row := probs.Row(i - c.start)
		pred1 := argmax(row)
		d := &decisions[i]
		d.Pred = pred1
		d.MainPred = pred1
		d.Exit = ExitMain
		d.Entropy = tensor.Entropy(row)
		d.ConfMain = float64(row[pred1])
	}
	if m.Dict == nil || m.ExtExit == nil {
		return // no extension path: c.hard stays nil
	}
	if det != nil {
		c.hard = det.Predict(feat)
		return
	}
	c.hard = make([]bool, c.end-c.start)
	for i := range c.hard {
		c.hard[i] = m.Dict.IsHard(decisions[c.start+i].MainPred)
	}
}

// gatherRows copies the instances idx (ascending batch positions) into one
// tensor: their raw images from x, or their main-block features from the
// chunks that computed them.
func gatherRows(x *tensor.Tensor, chunks []batchChunk, idx []int, rep protocol.Rep) *tensor.Tensor {
	if rep == protocol.RepRaw {
		return gatherSamples(x, idx)
	}
	shape := append([]int{len(idx)}, chunks[0].feat.Shape()[1:]...)
	out := tensor.New(shape...)
	per, size := out.Numel()/len(idx), chunks[0].end
	for bi, i := range idx {
		c := &chunks[i/size]
		j := i - c.start
		copy(out.Data()[bi*per:(bi+1)*per], c.feat.Data()[j*per:(j+1)*per])
	}
	return out
}

// extPart runs the adaptive and extension blocks on the hard instances idx
// (ascending batch positions), and the more confident edge exit wins.
func (m *MEANet) extPart(x *tensor.Tensor, chunks []batchChunk, idx []int, decisions []Decision) error {
	extLogits, err := m.ExtForward(gatherRows(x, chunks, idx, protocol.RepRaw),
		gatherRows(x, chunks, idx, protocol.RepFeatures), false)
	if err != nil {
		return err
	}
	extProbs := tensor.Softmax(extLogits)
	for bi, i := range idx {
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
	return nil
}

// InferDataset runs InferBatchedRep (raw uploads) over a whole dataset in
// mini-batches, returning one decision per instance in dataset order.
func (m *MEANet) InferDataset(ds *data.Dataset, batch int, pol Policy, cloud CloudBatchFunc) ([]Decision, error) {
	out := make([]Decision, 0, ds.N)
	err := ds.EachBatch(batch, func(_ int, x *tensor.Tensor, _ []int) error {
		decisions, err := m.InferBatchedRep(x, pol, protocol.RepRaw, cloud)
		out = append(out, decisions...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
	sub, src := t.Numel()/t.Dim(0), t.Data()
	for bi, i := range idx {
		copy(out.Data()[bi*sub:(bi+1)*sub], src[i*sub:(i+1)*sub])
	}
	return out
}
