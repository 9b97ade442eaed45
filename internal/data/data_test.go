package data

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/meanet/meanet/internal/tensor"
)

func tinyConfig(seed int64) SynthConfig {
	return SynthConfig{
		Classes: 6, Groups: 1, GroupSize: 3,
		ImgSize: 8, Channels: 2,
		TrainPerClass: 20, TestPerClass: 10,
		GroupSpread: 0.5, NoiseBase: 0.3, NoiseTail: 0.3, Jitter: 1,
		Seed: seed,
	}
}

func TestGenerateShapesAndBalance(t *testing.T) {
	s, err := Generate(tinyConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if s.Train.N != 120 || s.Test.N != 60 {
		t.Fatalf("split sizes %d/%d, want 120/60", s.Train.N, s.Test.N)
	}
	for _, cnt := range s.Train.ClassCounts() {
		if cnt != 20 {
			t.Fatalf("train class counts %v, want 20 each", s.Train.ClassCounts())
		}
	}
	for _, cnt := range s.Test.ClassCounts() {
		if cnt != 10 {
			t.Fatalf("test class counts %v, want 10 each", s.Test.ClassCounts())
		}
	}
}

func TestGenerateDeterministicForSeed(t *testing.T) {
	a, err := Generate(tinyConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(tinyConfig(42))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Train.X {
		if a.Train.X[i] != b.Train.X[i] {
			t.Fatal("same seed produced different data")
		}
	}
	c, err := Generate(tinyConfig(43))
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Train.X {
		if a.Train.X[i] != c.Train.X[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	tests := []struct {
		name   string
		mutate func(*SynthConfig)
	}{
		{"too few classes", func(c *SynthConfig) { c.Classes = 1 }},
		{"groups exceed classes", func(c *SynthConfig) { c.Groups, c.GroupSize = 4, 2 }},
		{"image too small", func(c *SynthConfig) { c.ImgSize = 2 }},
		{"no channels", func(c *SynthConfig) { c.Channels = 0 }},
		{"no train data", func(c *SynthConfig) { c.TrainPerClass = 0 }},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig(1)
			tc.mutate(&cfg)
			if _, err := Generate(cfg); err == nil {
				t.Fatal("invalid config accepted")
			}
		})
	}
}

// nearestPrototypeConfusion classifies test images by nearest class centroid
// (computed on train) and returns per-class accuracy. It is a cheap stand-in
// for a trained model, enough to probe the complexity structure.
func nearestPrototypeConfusion(t *testing.T, s *Synth) []float64 {
	t.Helper()
	k := s.Config.Classes
	sz := s.Train.ImageSize()
	centroids := make([][]float64, k)
	counts := make([]int, k)
	for i := range centroids {
		centroids[i] = make([]float64, sz)
	}
	for i := 0; i < s.Train.N; i++ {
		y := s.Train.Y[i]
		counts[y]++
		for j, v := range s.Train.X[i*sz : (i+1)*sz] {
			centroids[y][j] += float64(v)
		}
	}
	for c := range centroids {
		for j := range centroids[c] {
			centroids[c][j] /= float64(counts[c])
		}
	}
	correct := make([]float64, k)
	total := make([]float64, k)
	for i := 0; i < s.Test.N; i++ {
		img := s.Test.X[i*sz : (i+1)*sz]
		best, bestD := -1, math.Inf(1)
		for c := 0; c < k; c++ {
			var d float64
			for j, v := range img {
				diff := float64(v) - centroids[c][j]
				d += diff * diff
			}
			if d < bestD {
				best, bestD = c, d
			}
		}
		y := s.Test.Y[i]
		total[y]++
		if best == y {
			correct[y]++
		}
	}
	acc := make([]float64, k)
	for c := range acc {
		acc[c] = correct[c] / total[c]
	}
	return acc
}

// TestGroupedClassesAreHarder is the load-bearing property of the generator:
// confusable-group classes must have lower accuracy than independent ones,
// otherwise the paper's hard-class selection has nothing to find.
func TestGroupedClassesAreHarder(t *testing.T) {
	cfg := tinyConfig(7)
	cfg.TrainPerClass, cfg.TestPerClass = 60, 40
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc := nearestPrototypeConfusion(t, s)
	grouped := map[int]bool{}
	for _, c := range cfg.GroupedClasses() {
		grouped[c] = true
	}
	var hardSum, easySum float64
	var hardN, easyN int
	for c, a := range acc {
		if grouped[c] {
			hardSum += a
			hardN++
		} else {
			easySum += a
			easyN++
		}
	}
	hardAcc, easyAcc := hardSum/float64(hardN), easySum/float64(easyN)
	if hardAcc >= easyAcc-0.05 {
		t.Fatalf("grouped classes not harder: grouped %.3f vs independent %.3f", hardAcc, easyAcc)
	}
}

func TestSubsetAndFilterClasses(t *testing.T) {
	s, err := Generate(tinyConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	keep := map[int]bool{1: true, 4: true}
	remap := map[int]int{1: 0, 4: 1}
	f := s.Train.FilterClasses(keep, remap, 2)
	if f.NumClasses != 2 {
		t.Fatalf("NumClasses = %d, want 2", f.NumClasses)
	}
	if f.N != 40 {
		t.Fatalf("filtered N = %d, want 40", f.N)
	}
	for _, y := range f.Y {
		if y != 0 && y != 1 {
			t.Fatalf("unremapped label %d", y)
		}
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	f := func(seed int64) bool {
		s, err := Generate(tinyConfig(seed))
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		a, b := s.Train.Split(0.1, rng)
		return a.N+b.N == s.Train.N && a.N == 12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestLoaderCoversEpochExactlyOnce(t *testing.T) {
	s, err := Generate(tinyConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	l := NewLoader(s.Train, 32, rng)
	seen := 0
	batches := 0
	for {
		x, y, ok := l.Next()
		if !ok {
			break
		}
		if x.Dim(0) != len(y) {
			t.Fatalf("batch tensor %d rows vs %d labels", x.Dim(0), len(y))
		}
		seen += len(y)
		batches++
	}
	if seen != s.Train.N {
		t.Fatalf("epoch covered %d of %d examples", seen, s.Train.N)
	}
	if batches != l.Batches() {
		t.Fatalf("saw %d batches, Batches() = %d", batches, l.Batches())
	}
	// After Reset the loader runs again.
	l.Reset()
	if _, _, ok := l.Next(); !ok {
		t.Fatal("loader dead after Reset")
	}
}

func TestBatchGathersCorrectImages(t *testing.T) {
	s, err := Generate(tinyConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	x, y := s.Train.Batch([]int{3, 0})
	sz := s.Train.ImageSize()
	for j := 0; j < sz; j++ {
		if x.Data()[j] != s.Train.X[3*sz+j] {
			t.Fatal("batch row 0 does not match image 3")
		}
	}
	if y[0] != s.Train.Y[3] || y[1] != s.Train.Y[0] {
		t.Fatal("batch labels wrong")
	}
}

// TestEachBatchInOrder: the in-order iterator hands out exactly what Batch
// gathers for consecutive index ranges, ending on the partial batch, and
// stops at the callback's first error.
func TestEachBatchInOrder(t *testing.T) {
	s, err := Generate(tinyConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	ds := s.Test // 60 examples: batches of 25, 25, 10
	next := 0
	err = ds.EachBatch(25, func(start int, x *tensor.Tensor, y []int) error {
		if start != next {
			t.Fatalf("batch starts at %d, want %d", start, next)
		}
		idx := make([]int, len(y))
		for i := range idx {
			idx[i] = start + i
		}
		wx, wy := ds.Batch(idx)
		if !x.SameShape(wx) || !slices.Equal(x.Data(), wx.Data()) || !slices.Equal(y, wy) {
			t.Fatalf("batch at %d differs from Batch over the same indices", start)
		}
		next = start + len(y)
		return nil
	})
	if err != nil || next != ds.N {
		t.Fatalf("iterated %d of %d examples (err %v)", next, ds.N, err)
	}

	stop := errors.New("stop")
	calls := 0
	if err := ds.EachBatch(7, func(int, *tensor.Tensor, []int) error { calls++; return stop }); err != stop || calls != 1 {
		t.Fatalf("callback error: got %v after %d calls, want it returned after 1", err, calls)
	}
	if err := ds.EachBatch(0, func(int, *tensor.Tensor, []int) error { return nil }); err == nil {
		t.Fatal("batch size 0 accepted")
	}
}

func TestPresetsValidAtAllScales(t *testing.T) {
	for _, scale := range []Scale{ScaleTiny, ScaleSmall, ScaleFull} {
		for name, cfg := range map[string]SynthConfig{
			"c100":     SynthC100(scale, 1),
			"imagenet": SynthImageNet(scale, 1),
		} {
			if err := cfg.Validate(); err != nil {
				t.Fatalf("%s preset invalid at scale %v: %v", name, scale, err)
			}
		}
	}
}

func TestInstanceNoiseVaries(t *testing.T) {
	cfg := tinyConfig(9)
	cfg.NoiseTail = 0.8
	s, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rough per-image "noisiness" proxy: high-frequency energy via neighbour
	// differences. The tail must create a spread of difficulty.
	sz := s.Train.ImageSize()
	var lo, hi float64
	lo = math.Inf(1)
	for i := 0; i < s.Train.N; i++ {
		img := s.Train.X[i*sz : (i+1)*sz]
		var e float64
		for j := 1; j < len(img); j++ {
			d := float64(img[j] - img[j-1])
			e += d * d
		}
		if e < lo {
			lo = e
		}
		if e > hi {
			hi = e
		}
	}
	if hi < 2*lo {
		t.Fatalf("instance difficulty spread too flat: lo %.2f hi %.2f", lo, hi)
	}
}
