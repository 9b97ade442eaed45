package nn

import (
	"math"
	"testing"

	"github.com/meanet/meanet/internal/tensor"
)

// rectifierEdges are the inputs whose bits a rectifier must get right: both
// zeros, NaNs of both signs with two payloads each (one quiet, one
// signalling), both infinities, the smallest subnormals, ±1, and 6 with its
// neighbours one ulp either side.
var rectifierEdges = []uint32{
	0x00000000, 0x80000000, // ±0
	0x7fc00001, 0x7f800123, 0xffc00001, 0xff800123, // ±NaN, two payloads each
	0x7f800000, 0xff800000, // ±Inf
	0x00000001, 0x80000001, // ±smallest subnormal
	0x3f800000, 0xbf800000, // ±1
	0x40c00000, 0x40bfffff, 0x40c00001, // 6, 6-ulp, 6+ulp
}

// gradientEdges are the gradients gated against each input: NaN, ±Inf and
// −0, which must all come out +0 where the mask is false and keep their bits
// where it is true, and an ordinary 1.5.
var gradientEdges = []uint32{0x7fc00001, 0x7f800000, 0xff800000, 0x80000000, 0x3fc00000}

// TestRectifierBits pins ReLU and ReLU6 to a reference switch on every edge
// input, bit for bit: the eval output, the train output and mask, and the
// gradient Backward and backwardInPlace give for every edge gradient. ReLU
// passes what lies above zero and gives +0 for the rest, NaN and −0
// included; ReLU6 gives +0 up to 0, 6 from 6 on and passes the rest, NaN
// included; both pass the gradient where they passed the input and give
// +0 elsewhere, whatever the gradient.
func TestRectifierBits(t *testing.T) {
	for _, tc := range []struct {
		name  string
		layer interface {
			Layer
			inPlacer
			gateOf() *gate
		}
		ref func(v float32) (float32, bool) // output, and whether it passes
	}{
		{"relu", reluGate{NewReLU()}, func(v float32) (float32, bool) {
			switch {
			case v > 0:
				return v, true
			default:
				return 0, false
			}
		}},
		{"relu6", relu6Gate{NewReLU6()}, func(v float32) (float32, bool) {
			switch {
			case v <= 0:
				return 0, false
			case v >= 6:
				return 6, false
			default:
				return v, true
			}
		}},
	} {
		// Every input beside every gradient: element i*len(gradientEdges)+j
		// is input i with gradient j.
		n := len(rectifierEdges) * len(gradientEdges)
		x, dy := tensor.New(1, 1, 1, n), tensor.New(1, 1, 1, n)
		wantOut, wantDX := tensor.New(1, 1, 1, n), tensor.New(1, 1, 1, n)
		wantMask := make([]bool, n)
		for i, xb := range rectifierEdges {
			for j, gb := range gradientEdges {
				e := i*len(gradientEdges) + j
				v, g := math.Float32frombits(xb), math.Float32frombits(gb)
				x.Data()[e], dy.Data()[e] = v, g
				out, pass := tc.ref(v)
				wantOut.Data()[e], wantMask[e] = out, pass
				if pass {
					wantDX.Data()[e] = g
				}
			}
		}
		check := func(label string, got, want *tensor.Tensor) {
			t.Helper()
			for e, w := range want.Data() {
				if g := got.Data()[e]; math.Float32bits(g) != math.Float32bits(w) {
					i, j := e/len(gradientEdges), e%len(gradientEdges)
					t.Fatalf("%s %s: input %#08x gradient %#08x: got %#08x, want %#08x",
						tc.name, label, rectifierEdges[i], gradientEdges[j], math.Float32bits(g), math.Float32bits(w))
				}
			}
		}
		checkMask := func(label string) {
			t.Helper()
			for e, m := range tc.layer.gateOf().mask {
				if m != wantMask[e] {
					t.Fatalf("%s %s: input %#08x: mask %v, want %v",
						tc.name, label, rectifierEdges[e/len(gradientEdges)], m, wantMask[e])
				}
			}
		}

		check("eval output", tc.layer.Forward(x, false), wantOut)
		check("train output", tc.layer.Forward(x, true), wantOut)
		checkMask("train mask")
		check("Backward", tc.layer.Backward(dy), wantDX)

		in := x.Clone()
		tc.layer.forwardInPlace(in, true)
		check("in-place train output", in, wantOut)
		checkMask("in-place train mask")
		g := dy.Clone()
		tc.layer.backwardInPlace(g)
		check("backwardInPlace", g, wantDX)

		in = x.Clone()
		tc.layer.forwardInPlace(in, false)
		check("in-place eval output", in, wantOut)
	}
	t.Logf("%d inputs × %d gradients", len(rectifierEdges), len(gradientEdges))
}
