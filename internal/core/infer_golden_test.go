package core

import (
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// hashDecisions is the FNV hash of every field of every decision, the
// floats by their bits.
func hashDecisions(decisions []Decision) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64) {
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	flag := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	for _, d := range decisions {
		put(uint64(d.Pred))
		put(uint64(d.MainPred))
		put(uint64(d.Exit))
		put(math.Float64bits(d.Entropy))
		put(math.Float64bits(d.ConfMain))
		put(math.Float64bits(d.ConfExt))
		put(flag(d.CloudFailed))
		put(flag(d.Shed))
		put(uint64(d.CloudAttempts))
	}
	return h.Sum64()
}

// goldenRoutes calibrates forwardMEANet for TestInferBatchedRepGolden: the
// hard set is every other class the main exit predicts over the
// forwardBatches inputs (padded to the extension exit's ten), and the
// entropy threshold is the median over them, so a batch of several images
// splits between the main exit, the extension exit and the cloud.
func goldenRoutes(t *testing.T, m *MEANet) float64 {
	t.Helper()
	seen := map[int]bool{}
	var entropies []float64
	for _, n := range forwardBatches {
		_, logits := m.MainForward(forwardInput(n), false)
		probs := tensor.Softmax(logits)
		for i := 0; i < n; i++ {
			seen[argmax(probs.Row(i))] = true
			entropies = append(entropies, tensor.Entropy(probs.Row(i)))
		}
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
	for c := 0; len(hard) < 10; c++ {
		if !seen[c] {
			hard = append(hard, c)
		}
	}
	var err error
	if m.Dict, err = NewClassDict(hard); err != nil {
		t.Fatal(err)
	}
	sort.Float64s(entropies)
	return entropies[len(entropies)/2]
}

// TestInferBatchedRepGolden pins Algorithm 2 bit for bit: every field of
// every Decision InferBatchedRep returns, and the sub-batch its one cloud
// call receives, raw images and main-block features alike, for each
// forwardBatches size at one and two kernel workers. The cloud answers with
// a label read off each instance's data. The literals were taken while the
// gathers and the block outputs were ordinary heap tensors, so they pin the
// pooled storage that replaced them to the same bits.
func TestInferBatchedRepGolden(t *testing.T) {
	// Per batch: decisions and cloud sub-batch for raw uploads, then for
	// feature uploads.
	want := map[int][4]uint64{
		1:  {0x555ded734a89bbc7, 0, 0x555ded734a89bbc7, 0},
		3:  {0x93d823fbbf16cc13, 0x4249404759a525d2, 0x3084a765fe5fd9cc, 0xe92dc971c2ac83d5},
		4:  {0x2dc58f10c1b4fdba, 0xe0c7f5d06a837a3a, 0xead8be14697994d1, 0x2fe65bfd2c044fc7},
		16: {0x7248b88218c718c9, 0x0801a80b68f574a2, 0x03c789d1112b5b33, 0x21bdf3d4949e2120},
		37: {0xbdf3190a1f17a3f1, 0x874ebbd905600585, 0x5251f22b3ca69457, 0x52de00c97917207d},
	}
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(1)
	m := forwardMEANet(t)
	threshold := goldenRoutes(t, m)
	for _, workers := range []int{1, 2} {
		tensor.SetParallelism(workers)
		for _, n := range forwardBatches {
			x := forwardInput(n)
			var got [4]uint64
			exits := map[ExitPoint]int{}
			for r, rep := range []protocol.Rep{protocol.RepRaw, protocol.RepFeatures} {
				calls := 0
				cloud := func(sub *tensor.Tensor) ([]int, error) {
					calls++
					got[2*r+1] = hashBits(sub)
					preds := make([]int, sub.Dim(0))
					for i := range preds {
						preds[i] = int(math.Float32bits(sub.Sample(i).Data()[0]) % 20)
					}
					return preds, nil
				}
				dec, err := m.InferBatchedRep(x, Policy{Threshold: threshold, UseCloud: true}, rep, cloud)
				if err != nil {
					t.Fatal(err)
				}
				if calls > 1 {
					t.Fatalf("batch %d rep %v: %d cloud calls, want at most one", n, rep, calls)
				}
				got[2*r] = hashDecisions(dec)
				for _, d := range dec {
					exits[d.Exit]++
				}
			}
			if n >= 3 && (exits[ExitExtension] == 0 || exits[ExitExtension] == 2*n) {
				t.Errorf("batch %d: exits %v, want part of the batch on the extension path", n, exits)
			}
			if got != want[n] {
				t.Errorf("workers %d batch %d: decision/cloud hashes %#x, want %#x", workers, n, got, want[n])
			}
		}
	}
}
