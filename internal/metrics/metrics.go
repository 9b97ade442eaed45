// Package metrics implements the evaluation statistics the paper's
// complexity-aware strategies are built on: confusion matrices, per-class
// precision and false-discovery rate (class-wise complexity, Fig 2/3), the
// four error types of Fig 5, and entropy statistics used to pick the cloud
// offload threshold (§III-C).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Confusion is a K×K confusion matrix; rows are true labels, columns are
// predictions.
type Confusion struct {
	K int
	M []int // row-major K×K
}

// NewConfusion builds an empty matrix over k classes.
func NewConfusion(k int) *Confusion {
	return &Confusion{K: k, M: make([]int, k*k)}
}

// Add records one prediction.
func (c *Confusion) Add(label, pred int) {
	if label < 0 || label >= c.K || pred < 0 || pred >= c.K {
		panic(fmt.Sprintf("metrics: label %d / pred %d out of range for %d classes", label, pred, c.K))
	}
	c.M[label*c.K+pred]++
}

// AddBatch records a batch of predictions.
func (c *Confusion) AddBatch(labels, preds []int) {
	if len(labels) != len(preds) {
		panic(fmt.Sprintf("metrics: %d labels vs %d preds", len(labels), len(preds)))
	}
	for i := range labels {
		c.Add(labels[i], preds[i])
	}
}

// Total reports the number of recorded predictions.
func (c *Confusion) Total() int {
	t := 0
	for _, v := range c.M {
		t += v
	}
	return t
}

// Accuracy is trace/total (0 when empty).
func (c *Confusion) Accuracy() float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	diag := 0
	for i := 0; i < c.K; i++ {
		diag += c.M[i*c.K+i]
	}
	return float64(diag) / float64(total)
}

// Precision returns TP/(TP+FP) for class k, and ok=false when the class was
// never predicted (precision undefined).
func (c *Confusion) Precision(k int) (float64, bool) {
	tp := c.M[k*c.K+k]
	col := 0
	for i := 0; i < c.K; i++ {
		col += c.M[i*c.K+k]
	}
	if col == 0 {
		return 0, false
	}
	return float64(tp) / float64(col), true
}

// Recall returns TP/(TP+FN) for class k, and ok=false when the class has no
// instances.
func (c *Confusion) Recall(k int) (float64, bool) {
	tp := c.M[k*c.K+k]
	row := 0
	for j := 0; j < c.K; j++ {
		row += c.M[k*c.K+j]
	}
	if row == 0 {
		return 0, false
	}
	return float64(tp) / float64(row), true
}

// FDR returns the false discovery rate 1−precision of class k — the paper's
// class-wise complexity measure (Fig 3). Classes never predicted get FDR 1
// (maximally complex: the model cannot find them at all).
func (c *Confusion) FDR(k int) float64 {
	p, ok := c.Precision(k)
	if !ok {
		return 1
	}
	return 1 - p
}

// RankByFDR returns all class indices sorted by decreasing FDR (hardest
// first), breaking ties by class index for determinism.
func (c *Confusion) RankByFDR() []int {
	idx := make([]int, c.K)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		fa, fb := c.FDR(idx[a]), c.FDR(idx[b])
		if fa != fb {
			return fa > fb
		}
		return idx[a] < idx[b]
	})
	return idx
}

// String renders the matrix compactly (for Fig 2 style output).
func (c *Confusion) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "confusion %dx%d (rows=true, cols=pred)\n", c.K, c.K)
	for i := 0; i < c.K; i++ {
		for j := 0; j < c.K; j++ {
			fmt.Fprintf(&sb, "%5d", c.M[i*c.K+j])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// ErrorTypes are the four misclassification categories of Fig 5, as
// proportions of all errors.
type ErrorTypes struct {
	EasyAsHard float64 // type I
	HardAsEasy float64 // type II
	EasyAsEasy float64 // type III
	HardAsHard float64 // type IV
	Errors     int     // total misclassifications observed
}

// ClassifyErrors splits the errors of a confusion matrix by whether the true
// and predicted classes are hard.
func (c *Confusion) ClassifyErrors(hard map[int]bool) ErrorTypes {
	var counts [4]int
	total := 0
	for i := 0; i < c.K; i++ {
		for j := 0; j < c.K; j++ {
			if i == j {
				continue
			}
			n := c.M[i*c.K+j]
			if n == 0 {
				continue
			}
			total += n
			switch {
			case !hard[i] && hard[j]:
				counts[0] += n
			case hard[i] && !hard[j]:
				counts[1] += n
			case !hard[i] && !hard[j]:
				counts[2] += n
			default:
				counts[3] += n
			}
		}
	}
	et := ErrorTypes{Errors: total}
	if total == 0 {
		return et
	}
	et.EasyAsHard = float64(counts[0]) / float64(total)
	et.HardAsEasy = float64(counts[1]) / float64(total)
	et.EasyAsEasy = float64(counts[2]) / float64(total)
	et.HardAsHard = float64(counts[3]) / float64(total)
	return et
}

// EntropyStats summarizes prediction-entropy distributions separately for
// correct and wrong predictions; the paper picks the cloud threshold inside
// (MeanCorrect, MeanWrong).
type EntropyStats struct {
	MeanCorrect float64
	MeanWrong   float64
	NumCorrect  int
	NumWrong    int
}

// AddPrediction folds one (entropy, correct) observation into the stats.
func (s *EntropyStats) AddPrediction(entropy float64, correct bool) {
	if correct {
		s.MeanCorrect += entropy
		s.NumCorrect++
	} else {
		s.MeanWrong += entropy
		s.NumWrong++
	}
}

// Finalize converts accumulated sums into means.
func (s *EntropyStats) Finalize() {
	if s.NumCorrect > 0 {
		s.MeanCorrect /= float64(s.NumCorrect)
	}
	if s.NumWrong > 0 {
		s.MeanWrong /= float64(s.NumWrong)
	}
}

// ThresholdRange returns the recommended (µ_correct, µ_wrong) interval for
// the cloud offload threshold. When the two distributions are degenerate
// (e.g. no wrong predictions) the range collapses and ok is false.
func (s EntropyStats) ThresholdRange() (lo, hi float64, ok bool) {
	if s.NumCorrect == 0 || s.NumWrong == 0 || s.MeanWrong <= s.MeanCorrect {
		return s.MeanCorrect, s.MeanCorrect, false
	}
	return s.MeanCorrect, s.MeanWrong, true
}

// ThresholdMidpoint is the default cloud offload threshold: the midpoint of
// ThresholdRange, which is µ_correct itself when the range is degenerate.
func (s EntropyStats) ThresholdMidpoint() float64 {
	lo, hi, _ := s.ThresholdRange()
	return (lo + hi) / 2
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, v := range xs {
		s += (v - m) * (v - m)
	}
	return math.Sqrt(s / float64(len(xs)))
}
