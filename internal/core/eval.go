package core

import (
	"errors"
	"fmt"

	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/metrics"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/tensor"
)

// EvaluateMain runs the main path over a dataset in evaluation mode,
// returning the confusion matrix and the entropy statistics of correct vs
// wrong predictions (used both for hard-class selection, Algorithm 1 step 2,
// and for threshold estimation, §III-C).
func EvaluateMain(m *MEANet, ds *data.Dataset, batch int) (*metrics.Confusion, metrics.EntropyStats, error) {
	if batch < 1 {
		return nil, metrics.EntropyStats{}, errors.New("core: batch must be ≥1")
	}
	if ds.NumClasses != m.NumClasses {
		return nil, metrics.EntropyStats{}, fmt.Errorf("core: dataset has %d classes, MEANet expects %d", ds.NumClasses, m.NumClasses)
	}
	cm := metrics.NewConfusion(m.NumClasses)
	var es metrics.EntropyStats
	err := forEachBatch(ds, batch, func(x *tensor.Tensor, y []int) error {
		_, logits := m.MainForward(x, false)
		probs := tensor.Softmax(logits)
		for i := range y {
			row := probs.Row(i)
			pred := argmax(row)
			cm.Add(y[i], pred)
			es.AddPrediction(tensor.Entropy(row), pred == y[i])
		}
		return nil
	})
	if err != nil {
		return nil, metrics.EntropyStats{}, err
	}
	es.Finalize()
	return cm, es, nil
}

// EvaluateClassifier computes the confusion matrix of a complete CNN (e.g.
// the cloud AI) over a dataset.
func EvaluateClassifier(c *models.Classifier, ds *data.Dataset, batch int) (*metrics.Confusion, error) {
	if batch < 1 {
		return nil, errors.New("core: batch must be ≥1")
	}
	cm := metrics.NewConfusion(ds.NumClasses)
	err := forEachBatch(ds, batch, func(x *tensor.Tensor, y []int) error {
		logits := c.Logits(x, false)
		preds := logits.ArgMaxRows()
		cm.AddBatch(y, preds)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cm, nil
}

// EstimateThresholdRange evaluates the main block on a validation set and
// returns the recommended threshold interval (µ_correct, µ_wrong): "by
// evaluating the entropy values of the validation set, the range of the
// threshold can be determined" (§III-C).
func EstimateThresholdRange(m *MEANet, val *data.Dataset, batch int) (lo, hi float64, ok bool, err error) {
	_, es, err := EvaluateMain(m, val, batch)
	if err != nil {
		return 0, 0, false, err
	}
	lo, hi, ok = es.ThresholdRange()
	return lo, hi, ok, nil
}

// EvalReport summarizes an edge-only or edge-cloud inference run against
// ground truth.
type EvalReport struct {
	Overall       float64 // accuracy over all instances
	HardClasses   float64 // accuracy over instances whose true class is hard
	EasyClasses   float64 // accuracy over instances whose true class is easy
	Detection     float64 // easy/hard detection accuracy of the main block
	ExitCounts    map[ExitPoint]int
	CloudFailures int
	N             int
}

// Evaluate runs Algorithm 2 over a dataset and scores it. A nil dict (no
// hard-class selection yet) scores main-exit behaviour only.
func Evaluate(m *MEANet, ds *data.Dataset, batch int, pol Policy, cloud CloudBatchFunc) (EvalReport, error) {
	decisions, err := m.InferDataset(ds, batch, pol, cloud)
	if err != nil {
		return EvalReport{}, err
	}
	return ScoreDecisions(m, ds, decisions)
}

// ScoreDecisions compares per-instance decisions against dataset labels.
func ScoreDecisions(m *MEANet, ds *data.Dataset, decisions []Decision) (EvalReport, error) {
	if len(decisions) != ds.N {
		return EvalReport{}, fmt.Errorf("core: %d decisions for %d instances", len(decisions), ds.N)
	}
	rep := EvalReport{ExitCounts: make(map[ExitPoint]int), N: ds.N}
	var correct, hardN, hardOK, easyN, easyOK, detOK int
	for i, d := range decisions {
		y := ds.Y[i]
		if d.Pred == y {
			correct++
		}
		rep.ExitCounts[d.Exit]++
		if d.CloudFailed {
			rep.CloudFailures++
		}
		if m.Dict != nil {
			isHard := m.Dict.IsHard(y)
			// Detection: did the main block's own prediction land on the side
			// of the easy/hard partition the true class belongs to?
			if m.Dict.IsHard(d.MainPred) == isHard {
				detOK++
			}
			if isHard {
				hardN++
				if d.Pred == y {
					hardOK++
				}
			} else {
				easyN++
				if d.Pred == y {
					easyOK++
				}
			}
		}
	}
	rep.Overall = float64(correct) / float64(ds.N)
	if hardN > 0 {
		rep.HardClasses = float64(hardOK) / float64(hardN)
	}
	if easyN > 0 {
		rep.EasyClasses = float64(easyOK) / float64(easyN)
	}
	if m.Dict != nil {
		rep.Detection = float64(detOK) / float64(ds.N)
	}
	return rep, nil
}

// DetectionAccuracy reports how often the main block's easy/hard routing
// agrees with the true class's side of the partition (Table III/IV): an
// instance is detected as hard when the main prediction is a hard class.
func DetectionAccuracy(m *MEANet, ds *data.Dataset, batch int) (float64, error) {
	if m.Dict == nil {
		return 0, errors.New("core: hard classes not selected")
	}
	ok := 0
	err := forEachBatch(ds, batch, func(x *tensor.Tensor, y []int) error {
		_, logits := m.MainForward(x, false)
		preds := logits.ArgMaxRows()
		for i := range y {
			if m.Dict.IsHard(preds[i]) == m.Dict.IsHard(y[i]) {
				ok++
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return float64(ok) / float64(ds.N), nil
}

// HardSubsetAccuracy evaluates main-exit and MEANet (edge-only) accuracy on
// the subset of instances whose true class is hard, with the extension path
// always active — the Table II protocol ("this simulates the case that the
// edge can only get data in these classes from the environment. Under this
// circumstance, the extension and adaptive blocks are always activated").
func HardSubsetAccuracy(m *MEANet, ds *data.Dataset, batch int) (mainAcc, meaAcc float64, err error) {
	if m.Dict == nil {
		return 0, 0, errors.New("core: hard classes not selected")
	}
	var idx []int
	for i, y := range ds.Y {
		if m.Dict.IsHard(y) {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return 0, 0, errors.New("core: dataset contains no hard-class instances")
	}
	sub := ds.Subset(idx)
	var mainOK, meaOK int
	err = forEachBatch(sub, batch, func(x *tensor.Tensor, y []int) error {
		feat, logits := m.MainForward(x, false)
		probs := tensor.Softmax(logits)
		extLogits, err := m.ExtForward(x, feat, false)
		if err != nil {
			return err
		}
		extProbs := tensor.Softmax(extLogits)
		for i := range y {
			row := probs.Row(i)
			pred1 := argmax(row)
			if pred1 == y[i] {
				mainOK++
			}
			erow := extProbs.Row(i)
			pred2 := argmax(erow)
			pred := pred1
			if float64(erow[pred2]) > float64(row[pred1]) {
				pred = m.Dict.FromHard[pred2]
			}
			if pred == y[i] {
				meaOK++
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	n := float64(sub.N)
	return float64(mainOK) / n, float64(meaOK) / n, nil
}

// forEachBatch iterates a dataset in order without shuffling.
func forEachBatch(ds *data.Dataset, batch int, fn func(x *tensor.Tensor, y []int) error) error {
	if batch < 1 {
		return errors.New("core: batch must be ≥1")
	}
	for start := 0; start < ds.N; start += batch {
		end := start + batch
		if end > ds.N {
			end = ds.N
		}
		idx := make([]int, end-start)
		for i := range idx {
			idx[i] = start + i
		}
		x, y := ds.Batch(idx)
		if err := fn(x, y); err != nil {
			return err
		}
	}
	return nil
}
