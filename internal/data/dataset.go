// Package data provides the dataset substrate for the MEANet reproduction.
//
// CIFAR-100 and ImageNet are unavailable in this offline environment, so the
// package generates synthetic image-classification datasets whose two
// difficulty axes are first-class and tunable:
//
//   - class-wise complexity: groups of classes share a perturbed base
//     prototype and are therefore mutually confusable (the paper's "hard
//     classes" emerge from exactly this kind of structure);
//   - instance-wise complexity: every instance carries its own noise level
//     drawn from a heavy-tailed distribution, so a fraction of instances is
//     genuinely ambiguous (the paper's "complex" instances, which only a
//     larger model can resolve).
//
// The paper's method depends on which classes are hard and which instances
// are complex, not on the pixels, so a substrate with both under direct
// control tests its training and inference claims without the originals.
package data

import (
	"fmt"
	"math/rand"

	"github.com/meanet/meanet/internal/tensor"
)

// Dataset is an in-memory labelled image set in NCHW layout.
type Dataset struct {
	X          []float32 // length N*C*H*W
	Y          []int     // length N
	N, C, H, W int
	NumClasses int
}

// NewDataset allocates an empty dataset with capacity for n images.
func NewDataset(n, c, h, w, numClasses int) *Dataset {
	return &Dataset{
		X:          make([]float32, n*c*h*w),
		Y:          make([]int, n),
		N:          n,
		C:          c,
		H:          h,
		W:          w,
		NumClasses: numClasses,
	}
}

// ImageSize reports the per-image element count C*H*W.
func (d *Dataset) ImageSize() int { return d.C * d.H * d.W }

// Len reports the number of examples (satisfying batch-iteration interfaces).
func (d *Dataset) Len() int { return d.N }

// Image returns a view of image i as a [C,H,W] tensor sharing storage.
func (d *Dataset) Image(i int) *tensor.Tensor {
	sz := d.ImageSize()
	return tensor.FromSlice(d.X[i*sz:(i+1)*sz], d.C, d.H, d.W)
}

// Batch gathers the given indices into an NCHW tensor and a label slice.
func (d *Dataset) Batch(indices []int) (*tensor.Tensor, []int) {
	sz := d.ImageSize()
	x := tensor.New(len(indices), d.C, d.H, d.W)
	y := make([]int, len(indices))
	for bi, i := range indices {
		copy(x.Data()[bi*sz:(bi+1)*sz], d.X[i*sz:(i+1)*sz])
		y[bi] = d.Y[i]
	}
	return x, y
}

// Subset copies the selected indices into a new dataset.
func (d *Dataset) Subset(indices []int) *Dataset {
	out := NewDataset(len(indices), d.C, d.H, d.W, d.NumClasses)
	sz := d.ImageSize()
	for bi, i := range indices {
		copy(out.X[bi*sz:(bi+1)*sz], d.X[i*sz:(i+1)*sz])
		out.Y[bi] = d.Y[i]
	}
	return out
}

// Split partitions the dataset into two disjoint random subsets, the first
// containing ceil(frac*N) examples. It is used to carve a validation set
// from the training set (the paper holds out 10%).
func (d *Dataset) Split(frac float64, rng *rand.Rand) (*Dataset, *Dataset) {
	if frac < 0 || frac > 1 {
		panic(fmt.Sprintf("data: split fraction %v out of [0,1]", frac))
	}
	perm := rng.Perm(d.N)
	k := int(float64(d.N)*frac + 0.999999)
	if k > d.N {
		k = d.N
	}
	return d.Subset(perm[:k]), d.Subset(perm[k:])
}

// FilterClasses returns the subset whose labels are in keep, with labels
// remapped through remap (old label → new label). Labels absent from remap
// panic, because that indicates an inconsistent class dictionary.
func (d *Dataset) FilterClasses(keep map[int]bool, remap map[int]int, newNumClasses int) *Dataset {
	var idx []int
	for i, y := range d.Y {
		if keep[y] {
			idx = append(idx, i)
		}
	}
	out := d.Subset(idx)
	out.NumClasses = newNumClasses
	for i, y := range out.Y {
		ny, ok := remap[y]
		if !ok {
			panic(fmt.Sprintf("data: label %d selected but missing from remap", y))
		}
		out.Y[i] = ny
	}
	return out
}

// ClassCounts returns a histogram of labels.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses)
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// Loader iterates a dataset in shuffled mini-batches.
type Loader struct {
	ds    *Dataset
	batch int
	rng   *rand.Rand
	perm  []int
	pos   int
}

// NewLoader builds a loader with the given batch size. The RNG drives
// shuffling; pass a seeded source for reproducible epochs.
func NewLoader(ds *Dataset, batch int, rng *rand.Rand) *Loader {
	if batch < 1 {
		panic(fmt.Sprintf("data: batch size %d < 1", batch))
	}
	l := &Loader{ds: ds, batch: batch, rng: rng}
	l.Reset()
	return l
}

// Reset reshuffles and rewinds the loader.
func (l *Loader) Reset() {
	l.perm = l.rng.Perm(l.ds.N)
	l.pos = 0
}

// Next returns the next mini-batch, or ok=false at epoch end.
func (l *Loader) Next() (x *tensor.Tensor, y []int, ok bool) {
	if l.pos >= len(l.perm) {
		return nil, nil, false
	}
	end := l.pos + l.batch
	if end > len(l.perm) {
		end = len(l.perm)
	}
	x, y = l.ds.Batch(l.perm[l.pos:end])
	l.pos = end
	return x, y, true
}

// Batches reports the number of batches per epoch.
func (l *Loader) Batches() int { return (l.ds.N + l.batch - 1) / l.batch }
