package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// splitCloud is a cloud transport of TestInferBatchedRepSplitInvariance: it
// keeps a copy of every tensor it is handed and answers each call as its
// mode says.
type splitCloud struct {
	mode  string // "serves", "fails once" or "sheds"
	calls []*tensor.Tensor
}

func (c *splitCloud) call(sub *tensor.Tensor) ([]int, error) {
	c.calls = append(c.calls, sub.Clone())
	switch {
	case c.mode == "sheds":
		return nil, fmt.Errorf("cloud: %w", protocol.ErrShed)
	case c.mode == "fails once" && len(c.calls) == 1:
		return nil, errors.New("cloud: upload lost")
	}
	// A label read off each instance's own data, so a mixed-up gather
	// changes predictions as well as the tensor.
	preds := make([]int, sub.Dim(0))
	for i := range preds {
		preds[i] = int(math.Float32bits(sub.Sample(i).Data()[0]) % 20)
	}
	return preds, nil
}

// sameDecision reports whether two decisions agree field for field, the
// floats bitwise.
func sameDecision(a, b Decision) bool {
	return a == b && math.Float64bits(a.Entropy) == math.Float64bits(b.Entropy) &&
		math.Float64bits(a.ConfMain) == math.Float64bits(b.ConfMain) &&
		math.Float64bits(a.ConfExt) == math.Float64bits(b.ConfExt)
}

// TestInferBatchedRepSplitInvariance pins InferBatchedRep's split of a batch
// into per-worker chunks: at 2, 3 and 8 kernel workers every Decision field,
// and every tensor handed to the cloud, is bitwise the one-worker run's, for
// batches of 1, 7, 16 and 64 images (fewer images than workers included),
// raw and feature uploads, with and without the hardness detector, against a
// cloud that serves, one that fails once and then serves on CloudRetries 1,
// and one that sheds. Each attempt is exactly one cloud call.
func TestInferBatchedRepSplitInvariance(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(1)
	m := forwardMEANet(t)
	x64 := forwardInput(64)

	// Calibrate on the one-worker forward so that every route is taken: the
	// hard set is every other class the main exit predicts, and the entropy
	// threshold is the median.
	_, logits := m.MainForward(x64, false)
	probs := tensor.Softmax(logits)
	seen := map[int]bool{}
	entropies := make([]float64, 64)
	for i := range entropies {
		seen[argmax(probs.Row(i))] = true
		entropies[i] = tensor.Entropy(probs.Row(i))
	}
	var classes []int
	for c := range seen {
		classes = append(classes, c)
	}
	sort.Ints(classes)
	var hard []int
	for i := 0; i < len(classes); i += 2 {
		hard = append(hard, classes[i])
	}
	for c := 0; len(hard) < 10; c++ { // forwardMEANet's extension exit is 10 wide
		if !seen[c] {
			hard = append(hard, c)
		}
	}
	var err error
	if m.Dict, err = NewClassDict(hard); err != nil {
		t.Fatal(err)
	}
	sort.Float64s(entropies)
	threshold := entropies[32]
	det := NewHardnessDetector(rand.New(rand.NewSource(29)), m.MainOutChannels())

	type run struct {
		dec   []Decision
		calls []*tensor.Tensor
	}
	infer := func(x *tensor.Tensor, workers int, rep protocol.Rep, detector *HardnessDetector, mode string) run {
		t.Helper()
		tensor.SetParallelism(workers)
		cloud := &splitCloud{mode: mode}
		pol := Policy{Threshold: threshold, UseCloud: true, Detector: detector}
		if mode == "fails once" {
			pol.CloudRetries = 1
		}
		dec, err := m.InferBatchedRep(x, pol, rep, cloud.call)
		if err != nil {
			t.Fatal(err)
		}
		return run{dec, cloud.calls}
	}

	per := x64.Numel() / 64
	callsPerBatch := map[string]int{"serves": 1, "fails once": 2, "sheds": 1}
	exits := map[ExitPoint]int{}
	for _, n := range []int{1, 7, 16, 64} {
		x := tensor.FromSlice(x64.Data()[:n*per], n, 3, 16, 16)
		for _, rep := range []protocol.Rep{protocol.RepRaw, protocol.RepFeatures} {
			for _, detector := range []*HardnessDetector{nil, det} {
				for _, mode := range []string{"serves", "fails once", "sheds"} {
					label := fmt.Sprintf("batch %d rep %v detector %v cloud %s", n, rep, detector != nil, mode)
					want := infer(x, 1, rep, detector, mode)
					attempts := 0
					for _, d := range want.dec {
						if d.Entropy > threshold {
							attempts = callsPerBatch[mode]
						}
						if mode == "serves" {
							exits[d.Exit]++
						}
					}
					if len(want.calls) != attempts {
						t.Fatalf("%s: %d cloud calls at one worker, want %d", label, len(want.calls), attempts)
					}
					for _, workers := range []int{2, 3, 8} {
						got := infer(x, workers, rep, detector, mode)
						for i := range want.dec {
							if !sameDecision(got.dec[i], want.dec[i]) {
								t.Fatalf("%s workers %d: instance %d decided %+v, one worker %+v",
									label, workers, i, got.dec[i], want.dec[i])
							}
						}
						if len(got.calls) != len(want.calls) {
							t.Fatalf("%s workers %d: %d cloud calls, one worker made %d",
								label, workers, len(got.calls), len(want.calls))
						}
						for c, sub := range got.calls {
							ref := want.calls[c]
							if !sub.SameShape(ref) {
								t.Fatalf("%s workers %d: call %d shipped %v, one worker %v",
									label, workers, c, sub.Shape(), ref.Shape())
							}
							for j, v := range sub.Data() {
								if math.Float32bits(v) != math.Float32bits(ref.Data()[j]) {
									t.Fatalf("%s workers %d: call %d element %d = %v, one worker %v",
										label, workers, c, j, v, ref.Data()[j])
								}
							}
						}
					}
				}
			}
		}
	}
	for _, e := range []ExitPoint{ExitMain, ExitExtension, ExitCloud} {
		if exits[e] == 0 {
			t.Fatalf("no instance exited at %v (exits %v): the calibration leaves a route untested", e, exits)
		}
	}
}
