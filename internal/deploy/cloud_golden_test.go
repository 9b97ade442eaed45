package deploy

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/tensor"
)

// TestPartitionedLogitsGolden pins the cloud's eval logits to literal bits:
// cloud.Partitioned(m.Main, tail) on seeded raw batches, and the features
// tail on the main block's features of the same batches, at one and two
// kernel workers. The partition sweep and the serving conformance matrix
// compare against Partitioned itself, so only this test sees a change that
// alters its bits on both sides. The batch norms carry running statistics
// from three train-mode forwards, so normalization is not the identity.
func TestPartitionedLogitsGolden(t *testing.T) {
	// Per batch: the logits' hash, which the raw model and the features
	// tail share (see cloud.Partitioned).
	want := map[int]uint64{
		1:  0xc554c131e436a0fb,
		4:  0x397ab9e164faa2ea,
		16: 0x84b9d5fa54593e73,
	}
	m, tail := buildSweepNet(t)
	raw := cloud.Partitioned(m.Main, tail)
	warm := rand.New(rand.NewSource(42))
	for i := 0; i < 3; i++ {
		raw.Logits(tensor.Randn(warm, 1, 8, 3, 12, 12), true)
	}
	defer tensor.SetParallelism(tensor.Parallelism())
	for _, workers := range []int{1, 2} {
		tensor.SetParallelism(workers)
		for _, n := range []int{1, 4, 16} {
			x := tensor.Randn(rand.New(rand.NewSource(int64(4200+n))), 1, n, 3, 12, 12)
			got := [2]uint64{
				hashFloats(raw.Logits(x, false).Data()),
				hashFloats(tail.Logits(m.Main.Forward(x, false), false).Data()),
			}
			if label := fmt.Sprintf("workers %d batch %d", workers, n); got != [2]uint64{want[n], want[n]} {
				t.Errorf("%s: raw/features logits hashes %#x, want %#x for both", label, got, want[n])
			}
		}
	}
}
