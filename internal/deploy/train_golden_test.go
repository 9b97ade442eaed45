package deploy

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/opt"
	"github.com/meanet/meanet/internal/tensor"
)

// hashFloats is the FNV hash of the values' bits, in order.
func hashFloats(vals ...[]float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, vs := range vals {
		for _, v := range vs {
			u := math.Float32bits(v)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// trainedTailHashes trains a BuildTailNet classifier over seeded 8-channel
// 6×6 feature maps for three SGD steps of batch images (the later two apply
// momentum) at the current kernel worker count, and returns the hashes of
// its parameters, its batch-norm running statistics and its SaveWeights
// blob.
func trainedTailHashes(t *testing.T, batch int) [3]uint64 {
	t.Helper()
	const featC, classes = 8, 20
	rng := rand.New(rand.NewSource(41))
	cls, err := BuildTailNet(rng, featC, classes)
	if err != nil {
		t.Fatal(err)
	}
	ds := data.NewDataset(3*batch, featC, 6, 6, classes)
	for i := range ds.X {
		ds.X[i] = float32(rng.NormFloat64())
	}
	for i := range ds.Y {
		ds.Y[i] = i % classes
	}
	cfg := core.TrainConfig{Epochs: 1, Batch: batch, LR: opt.StepLR{Initial: 0.1}, Momentum: 0.9, WeightDecay: 5e-4, Seed: 5}
	if err := core.TrainClassifier(cls, ds, cfg); err != nil {
		t.Fatal(err)
	}
	var params, stats [][]float32
	for _, p := range cls.Params() {
		params = append(params, p.Data.Data())
	}
	for _, root := range []nn.Layer{cls.Backbone, cls.Exit} {
		models.Walk(root, func(l nn.Layer) {
			if bn, ok := l.(*nn.BatchNorm2D); ok {
				stats = append(stats, bn.RunningMean, bn.RunningVar)
			}
		})
	}
	var blob bytes.Buffer
	if err := models.SaveWeights(&blob, cls.Backbone, cls.Exit); err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(blob.Bytes())
	return [3]uint64{hashFloats(params...), hashFloats(stats...), h.Sum64()}
}

// TestClassifierTrainGolden pins core.TrainClassifier over the features
// tail's architecture bit for bit: train forward, backward through the stem,
// the residual group and the exit, and the SGD update. The literals were
// taken while Classifier still forwarded through a hand-written backbone
// layer, so they pin its single-Sequential composition to that form's bits.
// The conv weight gradient is summed over per-worker image chunks, so each
// worker count has its own literals; batch 37 leaves ragged conv tiles.
func TestClassifierTrainGolden(t *testing.T) {
	want := map[string][3]uint64{
		"workers 1 batch 16": {0x1ec9ae567afcfc86, 0x1a2bf67908a4c849, 0x3b8485ebc944a9d0},
		"workers 1 batch 37": {0xd887b0cbe2655308, 0x064a394ae0679014, 0x6580b6a0ae0da27b},
		"workers 2 batch 16": {0x479786232d982b06, 0x6407466068f055a5, 0xbbc6ae23804ef23e},
		"workers 2 batch 37": {0x7107329e50a5b9e7, 0x748b16831eb8e4af, 0x1071bf7fa5c3c1d9},
	}
	defer tensor.SetParallelism(tensor.Parallelism())
	for _, workers := range []int{1, 2} {
		for _, batch := range []int{16, 37} {
			tensor.SetParallelism(workers)
			key := fmt.Sprintf("workers %d batch %d", workers, batch)
			if got := trainedTailHashes(t, batch); got != want[key] {
				t.Errorf("%s: params/bn-stats/weight-file hashes %#x, want %#x", key, got, want[key])
			}
		}
	}
}
