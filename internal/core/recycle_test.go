package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/opt"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// warmedMEANetB wraps a seeded edge C100 backbone as a MEANet-B with one
// extension block, combine mode mode and a 10-class extension exit, and
// runs three train-mode forwards (no Backward) so every BatchNorm carries
// non-trivial running statistics.
func warmedMEANetB(t testing.TB, seed int64, mode CombineMode) *MEANet {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bb, err := models.BuildResNet(rng, models.ResNetEdgeC100(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := BuildMEANetB(rng, bb, 1, 20, mode)
	if err != nil {
		t.Fatal(err)
	}
	m.ExtExit = models.NewExit(rng, "alias.extexit", m.ExtOutChannels(), 10)
	for i := 0; i < 3; i++ {
		x := tensor.Randn(rng, 1, 8, 3, 16, 16)
		if _, err := m.ExtForward(x, m.Main.Forward(x, true), true); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// replayEdgeStep is EdgeTrainStep without its hand-backs: every tensor that
// crosses a module boundary is left to the garbage collector, so a step of
// the replay can be corrupted only by a hand-back elsewhere in the process.
func replayEdgeStep(m *MEANet, x *tensor.Tensor, y []int) (float64, error) {
	_, _, logits, err := m.extForward(x, m.Main.Forward(x, false), true)
	if err != nil {
		return 0, err
	}
	loss, dy := nn.SoftmaxCrossEntropy(logits, y)
	dcomb := m.Extension.Backward(m.ExtExit.Backward(dy))
	switch m.Combine {
	case CombineSum:
		m.Adaptive.Backward(dcomb)
	case CombineConcat:
		_, df2 := tensor.SplitChannels(dcomb, m.mainOutC)
		m.Adaptive.Backward(df2)
	}
	return loss, nil
}

// edgeSteps runs steps SGD steps of step on m over seeded batches of 1, 7
// and 16 images and returns each step's loss bits and the hash of the
// trained edge parameters.
func edgeSteps(t testing.TB, m *MEANet, steps int, step func(*MEANet, *tensor.Tensor, []int) (float64, error)) ([]uint64, uint64) {
	m.FreezeMain()
	params := m.EdgeParams()
	nn.UnfreezeParams(params)
	sgd := opt.NewSGD(0.05, 0.9, 5e-4)
	losses := make([]uint64, steps)
	for s := range losses {
		n := []int{1, 7, 16}[s%3]
		x := tensor.Randn(rand.New(rand.NewSource(int64(700+s))), 1, n, 3, 16, 16)
		y := make([]int, n)
		for i := range y {
			y[i] = (s + i) % 10
		}
		nn.ZeroGrads(params)
		loss, err := step(m, x, y)
		if err != nil {
			t.Error(err)
			return nil, 0
		}
		sgd.Step(params)
		losses[s] = math.Float64bits(loss)
	}
	h := uint64(0)
	for _, p := range params {
		h = h*31 + hashBits(p.Data)
	}
	return losses, h
}

// TestCoreRecyclingNeverAliases pins the hand-offs at core's module
// boundary: InferBatchedRep returns each chunk's main features and its
// extension gathers to the activation pool, ExtForward its combined input
// and extension output, and EdgeTrainStep what crossed its blocks, all into
// the one pool every model in the process shares. Two MEANets — a MEANet-A
// that sums the adaptive features in, and a MEANet-B whose extension block
// reads the main features alone (its combined input is the caller's
// tensor, which must never go back) — run InferBatchedRep from 4 goroutines
// over raw and feature uploads, while three more MEANet-Bs, one per combine
// mode, take EdgeTrainStep steps. Every decision and every sub-batch the
// cloud receives must be bitwise what a serial run gave, and every loss and
// the trained weights what a serial replay without the hand-backs gave. A
// buffer handed back while something could still read it is overwritten by
// the next request of its size, and a buffer handed back twice is given to
// two requests at once.
func TestCoreRecyclingNeverAliases(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(2)
	nets := []*MEANet{forwardMEANet(t), warmedMEANetB(t, 43, CombineMainOnly)}
	thresholds := make([]float64, len(nets))
	for i, m := range nets {
		thresholds[i] = goldenRoutes(t, m)
	}
	const steps = 12
	trainModes := []CombineMode{CombineSum, CombineConcat, CombineMainOnly}
	wantLosses := make([][]uint64, len(trainModes))
	wantWeights := make([]uint64, len(trainModes))
	for i, mode := range trainModes {
		wantLosses[i], wantWeights[i] = edgeSteps(t, warmedMEANetB(t, 44, mode), steps, replayEdgeStep)
	}

	type job struct {
		model, n int
		rep      protocol.Rep
	}
	// infer returns the hash of the decisions, that of the sub-batch the
	// cloud received and the number of extension exits.
	infer := func(j job) ([3]uint64, error) {
		var got [3]uint64
		cloud := func(sub *tensor.Tensor) ([]int, error) {
			got[1] = hashBits(sub)
			preds := make([]int, sub.Dim(0))
			for i := range preds {
				preds[i] = int(math.Float32bits(sub.Sample(i).Data()[0]) % 20)
			}
			return preds, nil
		}
		pol := Policy{Threshold: thresholds[j.model], UseCloud: true}
		dec, err := nets[j.model].InferBatchedRep(forwardInput(j.n), pol, j.rep, cloud)
		got[0] = hashDecisions(dec)
		for _, d := range dec {
			if d.Exit == ExitExtension {
				got[2]++
			}
		}
		return got, err
	}
	var jobs []job
	serial := map[job][3]uint64{}
	extExits := make([]uint64, len(nets))
	for mi := range nets {
		for _, n := range []int{1, 7, 16, 37} {
			for _, rep := range []protocol.Rep{protocol.RepRaw, protocol.RepFeatures} {
				j := job{mi, n, rep}
				got, err := infer(j)
				if err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
				serial[j] = got
				extExits[mi] += got[2]
			}
		}
	}

	for mi, e := range extExits {
		if e == 0 {
			t.Fatalf("model %d: no instance took the extension path", mi)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 4+len(trainModes))
	for i, mode := range trainModes {
		wg.Add(1)
		go func(i int, m *MEANet) {
			defer wg.Done()
			losses, weights := edgeSteps(t, m, steps, (*MEANet).EdgeTrainStep)
			for s := range losses {
				if losses[s] != wantLosses[i][s] {
					errs <- fmt.Sprintf("%v train step %d: loss bits %#x, serial %#x", trainModes[i], s, losses[s], wantLosses[i][s])
					return
				}
			}
			if weights != wantWeights[i] {
				errs <- fmt.Sprintf("%v: trained edge weights hash %#x, serial %#x", trainModes[i], weights, wantWeights[i])
			}
		}(i, warmedMEANetB(t, 44, mode))
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 2*len(jobs); r++ {
				j := jobs[(g*5+r)%len(jobs)]
				got, err := infer(j)
				if err != nil || got != serial[j] {
					errs <- fmt.Sprintf("goroutine %d: model %d batch %d rep %v: hashes %#x (err %v), serial %#x",
						g, j.model, j.n, j.rep, got, err, serial[j])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
