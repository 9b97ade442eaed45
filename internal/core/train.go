package core

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/opt"
	"github.com/meanet/meanet/internal/tensor"
)

// TrainConfig controls a supervised training run.
type TrainConfig struct {
	Epochs      int
	Batch       int
	LR          opt.StepLR
	Momentum    float64
	WeightDecay float64
	Seed        int64

	// Progress, when non-nil, receives the mean loss after every epoch.
	Progress func(epoch int, loss float64)
}

// DefaultTrainConfig mirrors the paper's recipe (§IV-A: initial LR 0.1 with
// step decay, SGD momentum) scaled to the synthetic workloads.
func DefaultTrainConfig(epochs int, seed int64) TrainConfig {
	milestones := []int{epochs / 2, epochs * 3 / 4}
	return TrainConfig{
		Epochs:      epochs,
		Batch:       32,
		LR:          opt.StepLR{Initial: 0.1, Milestones: milestones, Gamma: 0.1},
		Momentum:    0.9,
		WeightDecay: 5e-4,
		Seed:        seed,
	}
}

// Validate reports configuration errors.
func (c TrainConfig) Validate() error {
	switch {
	case c.Epochs < 1:
		return fmt.Errorf("core: epochs %d < 1", c.Epochs)
	case c.Batch < 1:
		return fmt.Errorf("core: batch %d < 1", c.Batch)
	case c.LR.Initial <= 0:
		return fmt.Errorf("core: initial LR %v must be positive", c.LR.Initial)
	}
	return nil
}

// runTraining is the shared epoch/batch loop. step computes the loss and
// accumulates gradients for one mini-batch; runTraining handles shuffling,
// gradient zeroing, the optimizer and the LR schedule.
func runTraining(cfg TrainConfig, ds *data.Dataset, params []*nn.Param, step func(x *tensor.Tensor, y []int) (float64, error)) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if ds.N == 0 {
		return errors.New("core: empty training dataset")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	loader := data.NewLoader(ds, cfg.Batch, rng)
	sgd := opt.NewSGD(cfg.LR.Initial, cfg.Momentum, cfg.WeightDecay)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		sgd.LR = cfg.LR.At(epoch)
		loader.Reset()
		var epochLoss float64
		batches := 0
		for {
			x, y, ok := loader.Next()
			if !ok {
				break
			}
			nn.ZeroGrads(params)
			loss, err := step(x, y)
			if err != nil {
				return err
			}
			sgd.Step(params)
			epochLoss += loss
			batches++
		}
		if cfg.Progress != nil {
			cfg.Progress(epoch, epochLoss/float64(batches))
		}
	}
	return nil
}

// TrainMainBlock trains the main block and its exit on the full dataset —
// Algorithm 1 step 1 as applied to the edge model ("train the main block of
// the edge AI at the cloud with the whole dataset").
func TrainMainBlock(m *MEANet, train *data.Dataset, cfg TrainConfig) error {
	if train.NumClasses != m.NumClasses {
		return fmt.Errorf("core: dataset has %d classes, MEANet expects %d", train.NumClasses, m.NumClasses)
	}
	params := m.MainParams()
	nn.UnfreezeParams(params)
	return runTraining(cfg, train, params, func(x *tensor.Tensor, y []int) (float64, error) {
		_, logits := m.MainForward(x, true)
		loss, dy := nn.SoftmaxCrossEntropy(logits, y)
		m.Main.BackwardParams(m.MainExit.Backward(dy))
		return loss, nil
	})
}

// TrainClassifier trains a complete CNN (e.g. the cloud AI) on the dataset.
func TrainClassifier(c *models.Classifier, train *data.Dataset, cfg TrainConfig) error {
	params := c.Params()
	nn.UnfreezeParams(params)
	return runTraining(cfg, train, params, func(x *tensor.Tensor, y []int) (float64, error) {
		logits := c.Logits(x, true)
		loss, dy := nn.SoftmaxCrossEntropy(logits, y)
		c.BackwardParams(dy)
		return loss, nil
	})
}

// TrainEdgeBlocks performs the edge side of Algorithm 1 (steps 5–8): it
// filters the training set down to hard-class instances with remapped
// labels, freezes the main block, builds the hard-class extension exit if
// needed, and trains the adaptive block, extension block and extension exit
// blockwise. The main block runs in evaluation mode throughout, so no
// activations or gradients are stored for it — the memory saving the paper
// reports in Fig 6.
func TrainEdgeBlocks(m *MEANet, train *data.Dataset, cfg TrainConfig) error {
	if m.Dict == nil {
		return errors.New("core: hard classes not selected; call SelectHardClasses first")
	}
	if train.NumClasses != m.NumClasses {
		return fmt.Errorf("core: dataset has %d classes, MEANet expects %d", train.NumClasses, m.NumClasses)
	}
	hard := FilterHardData(train, m.Dict)
	if hard.N == 0 {
		return errors.New("core: no hard-class instances in training data")
	}
	if m.ExtExit == nil {
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		m.ExtExit = models.NewExit(rng, "extexit", m.extOutC, m.Dict.NumHard())
	} else if m.ExtExit.Layers[len(m.ExtExit.Layers)-1].(*nn.Linear).OutFeatures() != m.Dict.NumHard() {
		return fmt.Errorf("core: extension exit width does not match %d hard classes", m.Dict.NumHard())
	}
	m.FreezeMain()
	params := m.EdgeParams()
	nn.UnfreezeParams(params)
	return runTraining(cfg, hard, params, m.EdgeTrainStep)
}

// EdgeTrainStep is one step of TrainEdgeBlocks on a batch x with hard-class
// labels y: the frozen main block's eval forward, then the train-mode
// forward and backward of the adaptive block, the extension block and the
// extension exit, accumulating their parameter gradients. It returns the
// loss; the caller zeroes the gradients before and steps the optimizer
// after. The adaptive block runs BackwardParams: the raw-image gradient
// nobody reads is never formed. Once the blocks' backward has returned, the
// step hands back to nn's activation pool what crossed its module
// boundaries: the main features, the combined input, the extension output,
// and the gradients the extension exit and the extension block returned.
// It never hands back x.
func (m *MEANet) EdgeTrainStep(x *tensor.Tensor, y []int) (float64, error) {
	feat := m.Main.Forward(x, false) // frozen main: evaluation mode, no caches
	in, h, logits, err := m.extForward(x, feat, true)
	if err != nil {
		nn.Recycle(feat, x)
		return 0, err
	}
	loss, dy := nn.SoftmaxCrossEntropy(logits, y)
	dh := m.ExtExit.Backward(dy)
	dcomb := m.Extension.Backward(dh)
	if m.Combine != CombineMainOnly {
		df2 := dcomb
		if m.Combine == CombineConcat {
			_, df2 = tensor.SplitChannels(dcomb, m.mainOutC)
		}
		m.Adaptive.BackwardParams(df2)
	}
	// Each goes back unless it shares storage with x, the loss gradient or a
	// tensor handed back after it, so no storage goes back twice.
	nn.Recycle(dcomb, dh)
	nn.Recycle(dh, dy)
	nn.Recycle(h, in)
	nn.Recycle(in, feat, x)
	nn.Recycle(feat, x)
	return loss, nil
}

// TrainEdgeBlocksWithReplay adapts the edge blocks on newly collected
// environment data mixed with replayed dataset samples — the paper's
// prescription for the real-environment case: "to avoid overfitting and
// catastrophic forgetting on the new samples, we suggest using both the new
// samples and samples from the dataset for training" (§III-A). Both datasets
// are filtered to hard classes; replayFraction ∈ [0,1] controls how much of
// the replay pool is mixed in.
func TrainEdgeBlocksWithReplay(m *MEANet, newData, replay *data.Dataset, replayFraction float64, cfg TrainConfig) error {
	if m.Dict == nil {
		return errors.New("core: hard classes not selected; call SelectHardClasses first")
	}
	if replayFraction < 0 || replayFraction > 1 {
		return fmt.Errorf("core: replay fraction %v outside [0,1]", replayFraction)
	}
	if newData.NumClasses != m.NumClasses || replay.NumClasses != m.NumClasses {
		return fmt.Errorf("core: datasets have %d/%d classes, MEANet expects %d",
			newData.NumClasses, replay.NumClasses, m.NumClasses)
	}
	if newData.C != replay.C || newData.H != replay.H || newData.W != replay.W {
		return fmt.Errorf("core: new data %dx%dx%d incompatible with replay %dx%dx%d",
			newData.C, newData.H, newData.W, replay.C, replay.H, replay.W)
	}
	mixed := newData
	if replayFraction > 0 {
		rng := rand.New(rand.NewSource(cfg.Seed + 3))
		k := int(float64(replay.N) * replayFraction)
		if k > 0 {
			sampled := replay.Subset(rng.Perm(replay.N)[:k])
			combined := data.NewDataset(newData.N+sampled.N, newData.C, newData.H, newData.W, newData.NumClasses)
			copy(combined.X, newData.X)
			copy(combined.X[len(newData.X):], sampled.X)
			copy(combined.Y, newData.Y)
			copy(combined.Y[newData.N:], sampled.Y)
			mixed = combined
		}
	}
	return TrainEdgeBlocks(m, mixed, cfg)
}

// TrainJoint is the BranchyNet-style joint-optimization baseline the paper
// compares against (§III-A, Fig 6): both exits are trained together on the
// full dataset with weighted losses, every parameter — including the main
// block — receiving gradients. The extension exit covers all classes and the
// class dictionary becomes the identity.
func TrainJoint(m *MEANet, train *data.Dataset, cfg TrainConfig, w1, w2 float64) error {
	if train.NumClasses != m.NumClasses {
		return fmt.Errorf("core: dataset has %d classes, MEANet expects %d", train.NumClasses, m.NumClasses)
	}
	if w1 < 0 || w2 < 0 || w1+w2 == 0 {
		return fmt.Errorf("core: invalid exit-loss weights %v, %v", w1, w2)
	}
	all := make([]int, m.NumClasses)
	for i := range all {
		all[i] = i
	}
	dict, err := NewClassDict(all)
	if err != nil {
		return err
	}
	m.Dict = dict
	if m.ExtExit == nil {
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		m.ExtExit = models.NewExit(rng, "extexit", m.extOutC, m.NumClasses)
	}
	params := m.Params()
	nn.UnfreezeParams(params)
	return runTraining(cfg, train, params, func(x *tensor.Tensor, y []int) (float64, error) {
		feat, logits1 := m.MainForward(x, true)
		logits2, err := m.ExtForward(x, feat, true)
		if err != nil {
			return 0, err
		}
		loss1, dy1 := nn.SoftmaxCrossEntropy(logits1, y)
		loss2, dy2 := nn.SoftmaxCrossEntropy(logits2, y)
		dy1.ScaleInPlace(float32(w1))
		dy2.ScaleInPlace(float32(w2))

		// feat feeds both the main exit and the extension path; gradients sum.
		dh := m.ExtExit.Backward(dy2)
		dcomb := m.Extension.Backward(dh)
		dfeat := m.MainExit.Backward(dy1)
		switch m.Combine {
		case CombineConcat:
			dfeatExt, df2 := tensor.SplitChannels(dcomb, m.mainOutC)
			dfeat.AddInPlace(dfeatExt)
			m.Adaptive.BackwardParams(df2)
		case CombineMainOnly:
			dfeat.AddInPlace(dcomb)
		default: // CombineSum
			dfeat.AddInPlace(dcomb)
			m.Adaptive.BackwardParams(dcomb)
		}
		m.Main.BackwardParams(dfeat)
		return w1*loss1 + w2*loss2, nil
	})
}

// TrainSeparate is the separate-optimization baseline (§III-A): first all
// convolutional layers are trained against the loss at the final (extension)
// exit over all classes, then they are frozen and the main exit is trained
// alone.
func TrainSeparate(m *MEANet, train *data.Dataset, cfg TrainConfig) error {
	if err := TrainJoint(m, train, cfg, 0, 1); err != nil {
		return fmt.Errorf("core: separate phase 1: %w", err)
	}
	nn.FreezeParams(m.Params())
	nn.UnfreezeParams(m.MainExit.Params())
	err := runTraining(cfg, train, m.MainExit.Params(), func(x *tensor.Tensor, y []int) (float64, error) {
		feat := m.Main.Forward(x, false)
		logits := m.MainExit.Forward(feat, true)
		loss, dy := nn.SoftmaxCrossEntropy(logits, y)
		m.MainExit.BackwardParams(dy)
		return loss, nil
	})
	if err != nil {
		return fmt.Errorf("core: separate phase 2: %w", err)
	}
	return nil
}
