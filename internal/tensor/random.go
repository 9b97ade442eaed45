package tensor

import (
	"math"
	"math/rand"
)

// Randn returns a tensor with elements drawn i.i.d. from N(0, std²) using
// the provided RNG, keeping all stochastic behaviour seedable.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(rng.NormFloat64() * std)
	}
	return t
}

// KaimingConv initialises a convolution weight tensor [outC, inC, kh, kw]
// with He/Kaiming-normal scaling, the standard initialisation for
// ReLU networks (std = sqrt(2 / fan_in)).
func KaimingConv(rng *rand.Rand, outC, inC, kh, kw int) *Tensor {
	fanIn := inC * kh * kw
	std := math.Sqrt(2.0 / float64(fanIn))
	return Randn(rng, std, outC, inC, kh, kw)
}

// KaimingLinear initialises a fully-connected weight tensor [outF, inF]
// with He/Kaiming-normal scaling.
func KaimingLinear(rng *rand.Rand, outF, inF int) *Tensor {
	std := math.Sqrt(2.0 / float64(inF))
	return Randn(rng, std, outF, inF)
}
