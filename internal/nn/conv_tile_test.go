package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/meanet/meanet/internal/tensor"
)

// requireBitwise fails unless got and want hold the same bits.
func requireBitwise(t *testing.T, label string, got, want *tensor.Tensor) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %v, want %v", label, got.Shape(), want.Shape())
	}
	for i, v := range want.Data() {
		if math.Float32bits(got.Data()[i]) != math.Float32bits(v) {
			t.Fatalf("%s: element %d = %x, want %x", label, i, math.Float32bits(got.Data()[i]), math.Float32bits(v))
		}
	}
}

// TestConvEvalTilesMatchPerImageBitwise walks the eval convolution across
// its tile boundaries — no images, one, a tile short, a full tile, one over,
// and two tiles plus a ragged tail — and requires the tiled forward to equal
// the per-image train-mode forward bit for bit. Geometries cover stride 1
// and 2, pad 0 and 1, with and without bias, a tile bounded by the output
// width rather than the unfold height, and one image too large for the
// pooled workspace.
func TestConvEvalTilesMatchPerImageBitwise(t *testing.T) {
	geoms := []struct {
		name           string
		inC, outC, k   int
		size           int
		strides, pads  []int
		singleOversize bool
	}{
		{name: "3x3", inC: 4, outC: 8, k: 3, size: 20, strides: []int{1, 2}, pads: []int{0, 1}},
		{name: "1x1-wide", inC: 2, outC: 24, k: 1, size: 20, strides: []int{1, 2}, pads: []int{0, 1}},
		{name: "oversize", inC: 16, outC: 4, k: 3, size: 48, strides: []int{1}, pads: []int{1}, singleOversize: true},
	}
	rng := rand.New(rand.NewSource(28))
	for _, g := range geoms {
		for _, stride := range g.strides {
			for _, pad := range g.pads {
				for _, bias := range []bool{false, true} {
					conv := NewConv2D(rng, "tile", g.inC, g.outC, g.k, stride, pad, bias)
					if bias {
						conv.B.Data.CopyFrom(tensor.Randn(rng, 1, g.outC))
					}
					dims := tensor.NewConvDims(g.inC, g.size, g.size, g.k, g.k, stride, pad)
					per := max(dims.ColRows(), g.outC) * dims.ColCols()
					tile := convTileFloats / per
					ns := []int{0, 1, tile - 1, tile, tile + 1, 2*tile + 3}
					if g.singleOversize {
						if tile != 0 {
							t.Fatalf("%s: %d floats per image fits the %d-float workspace", g.name, per, convTileFloats)
						}
						ns = []int{1, 2}
					}
					for _, n := range ns {
						if n < 0 {
							continue
						}
						label := fmt.Sprintf("%s stride %d pad %d bias %v tile %d N %d", g.name, stride, pad, bias, tile, n)
						x := tensor.Randn(rng, 1, n, g.inC, g.size, g.size)
						requireBitwise(t, label, conv.Forward(x, false), conv.Forward(x, true))
					}
				}
			}
		}
	}
}
