package core

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/tensor"
)

// HardnessDetector is the paper's optional binary easy/hard detector
// (§III-B: "it is optional to train a binary classifier as a detector").
// It is a small head on the frozen main block's features predicting whether
// an instance belongs to a hard class. The default IsHard routing — argmax
// of the main exit landing in the hard set — needs no extra parameters; this
// detector exists so the two can be compared (ablation-detector).
type HardnessDetector struct {
	Head *nn.Sequential // GAP + Linear(featC, 2)
}

// NewHardnessDetector builds a detector head for the given feature width.
func NewHardnessDetector(rng *rand.Rand, featC int) *HardnessDetector {
	return &HardnessDetector{Head: models.NewExit(rng, "detector", featC, 2)}
}

// Predict reports, per instance of a main-feature batch, whether the
// detector considers it a hard-class instance.
func (d *HardnessDetector) Predict(feat *tensor.Tensor) []bool {
	logits := d.Head.Forward(feat, false)
	preds := logits.ArgMaxRows()
	out := make([]bool, len(preds))
	for i, p := range preds {
		out[i] = p == 1
	}
	return out
}

// TrainDetector fits the detector head on frozen main-block features with
// binary labels derived from the MEANet's hard-class dictionary.
func TrainDetector(m *MEANet, det *HardnessDetector, train *data.Dataset, cfg TrainConfig) error {
	if m.Dict == nil {
		return errors.New("core: hard classes not selected; detector labels undefined")
	}
	if det == nil || det.Head == nil {
		return errors.New("core: nil detector")
	}
	if train.NumClasses != m.NumClasses {
		return fmt.Errorf("core: dataset has %d classes, MEANet expects %d", train.NumClasses, m.NumClasses)
	}
	params := det.Head.Params()
	nn.UnfreezeParams(params)
	return runTraining(cfg, train, params, func(x *tensor.Tensor, y []int) (float64, error) {
		feat := m.Main.Forward(x, false) // frozen features
		logits := det.Head.Forward(feat, true)
		labels := make([]int, len(y))
		for i, cls := range y {
			if m.Dict.IsHard(cls) {
				labels[i] = 1
			}
		}
		loss, dy := nn.SoftmaxCrossEntropy(logits, labels)
		det.Head.Backward(dy)
		return loss, nil
	})
}

// DetectorAccuracy measures how often the learned detector agrees with the
// true class's side of the easy/hard partition.
func DetectorAccuracy(m *MEANet, det *HardnessDetector, ds *data.Dataset, batch int) (float64, error) {
	if m.Dict == nil {
		return 0, errors.New("core: hard classes not selected")
	}
	ok := 0
	err := ds.EachBatch(batch, func(_ int, x *tensor.Tensor, y []int) error {
		feat := m.Main.Forward(x, false)
		flags := det.Predict(feat)
		for i := range y {
			if flags[i] == m.Dict.IsHard(y[i]) {
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
