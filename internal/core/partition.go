package core

// Multi-hop partitioning: the generalization of the single main↔tail split.
// A trained network, flattened into an ordered chain of atomic layer units,
// can be cut at any unit boundary into N serving stages; each stage runs on
// one device of a relay chain (edge → hop → … → cloud) and forwards its
// output activations downstream. The degenerate single-cut case — cut at the
// main-block boundary — reproduces today's main↔tail deployment exactly.
//
// Stages hold the SAME layer objects in the SAME order as the monolithic
// network, so a chained forward is the monolithic forward with extra function
// boundaries: predictions are bitwise identical for every legal cut chain
// (the kernels accumulate in the same order wherever the split runs).

import (
	"fmt"

	"github.com/meanet/meanet/internal/nn"
)

// CutPoint is a stage boundary: the index of the first chain unit of the NEXT
// stage. Legal cut points for a chain of L units are 1..L-1 (every stage runs
// at least one unit).
type CutPoint int

// FlattenChain expands containers into the ordered list of atomic chain
// units a Partition may cut between: an *nn.Sequential (a block, a
// classifier's backbone, a backbone's stem or group) is flattened
// recursively; everything else (convolutions, norms, activations,
// residual blocks — whose two branches join at an add and cannot be split
// sequentially — pools, linears) is one atomic unit. Nil layers are skipped,
// so optional chain parts compose without padding.
func FlattenChain(layers ...nn.Layer) []nn.Layer {
	var out []nn.Layer
	for _, l := range layers {
		switch v := l.(type) {
		case nil:
			continue
		case *nn.Sequential:
			out = append(out, FlattenChain(v.Layers...)...)
		default:
			out = append(out, l)
		}
	}
	return out
}

// Partition slices a flattened chain into len(cuts)+1 stages at the given
// strictly increasing cut points. Stage i is a named *nn.Sequential over
// chain[cuts[i-1]:cuts[i]] (with the implicit outer bounds 0 and len(chain)),
// reusing the chain's layer objects — no weights are copied, and the chained
// eval forward is bitwise identical to the monolithic one. An empty cuts
// slice yields the whole chain as one stage.
func Partition(chain []nn.Layer, cuts []CutPoint) ([]*nn.Sequential, error) {
	if len(chain) == 0 {
		return nil, fmt.Errorf("core: partition of an empty chain")
	}
	prev := CutPoint(0)
	for i, c := range cuts {
		if c <= prev {
			return nil, fmt.Errorf("core: cut points must be strictly increasing: cut %d is %d after %d", i, c, prev)
		}
		if int(c) >= len(chain) {
			return nil, fmt.Errorf("core: cut point %d out of range (chain has %d units, legal cuts 1..%d)",
				c, len(chain), len(chain)-1)
		}
		prev = c
	}
	bounds := make([]int, 0, len(cuts)+2)
	bounds = append(bounds, 0)
	for _, c := range cuts {
		bounds = append(bounds, int(c))
	}
	bounds = append(bounds, len(chain))
	stages := make([]*nn.Sequential, len(cuts)+1)
	for i := range stages {
		stages[i] = nn.NewSequential(fmt.Sprintf("stage%d", i), chain[bounds[i]:bounds[i+1]]...)
	}
	return stages, nil
}
