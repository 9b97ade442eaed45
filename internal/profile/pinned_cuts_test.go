package profile_test

import (
	"math/rand"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/deploy"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/profile"
)

// edgeServingChain is the geometry the deployments partition: the C100 edge
// backbone as a MEANet (variant B in the experiments, A in the serving
// benchmark) plus the features tail, untrained — only layer shapes enter the
// cost model.
func edgeServingChain(t *testing.T, variantB bool, classes int) []nn.Layer {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	b, err := models.BuildResNet(rng, models.ResNetEdgeC100(1))
	if err != nil {
		t.Fatal(err)
	}
	var m *core.MEANet
	if variantB {
		m, err = core.BuildMEANetB(rng, b, 2, classes, core.CombineSum)
	} else {
		m, err = core.BuildMEANetA(rng, b, 2, classes)
	}
	if err != nil {
		t.Fatal(err)
	}
	cls, err := deploy.BuildTailNet(rng, m.MainOutChannels(), classes)
	if err != nil {
		t.Fatal(err)
	}
	return deploy.ServingChain(m, &cloud.Tail{Body: cls.Backbone, Exit: cls.Exit})
}

// smallResNetChain is the 7-unit classifier of the fleet acceptance scenario
// and the root chain benchmarks.
func smallResNetChain(t *testing.T) []nn.Layer {
	t.Helper()
	rng := rand.New(rand.NewSource(71))
	b, err := models.BuildResNet(rng, models.ResNetSpec{
		Name: "chainaccept", InChannels: 3, StemChannels: 4,
		Channels: []int{4, 8}, Blocks: []int{1, 1}, Strides: []int{1, 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	cls := models.NewClassifier(rng, b, 5)
	return core.FlattenChain(cls.Backbone, cls.Exit)
}

// TestPlacePipelineCutsPinned holds the solver's answers still across the
// re-pin of its wire model from the deleted static relay frame (35 B of
// overhead) to the routed frame that is actually sent (38 B + 2 B per
// boundary still ahead): on every 3-device fixture the repo solves — this
// package's, the pipeline-partition experiment's, the fleet acceptance
// scenario's, the root benchmarks' and the serving benchmark's chain-relay
// workload — PlacePipeline must return the cuts it returned before.
func TestPlacePipelineCutsPinned(t *testing.T) {
	in := profile.Shape{C: 3, H: 12, W: 12}
	ms, us := time.Millisecond, time.Microsecond
	interlink := netsim.Link{Latency: 500 * us, Mbps: 200}
	for _, f := range []struct {
		name   string
		chain  []nn.Layer
		full   time.Duration // whole-chain compute per device; 0 = use rate
		rate   float64
		uplink netsim.Link
		want   []core.CutPoint
	}{
		{"profile", edgeServingChain(t, true, 20), 18 * ms, 0, netsim.Link{Latency: ms, Mbps: 7}, []core.CutPoint{1, 8}},
		{"experiments", edgeServingChain(t, true, 20), 9 * ms, 0, netsim.Link{Latency: ms, Mbps: 7}, []core.CutPoint{5, 8}},
		{"experiments/100 classes", edgeServingChain(t, true, 100), 9 * ms, 0, netsim.Link{Latency: ms, Mbps: 7}, []core.CutPoint{5, 8}},
		{"benchmark chain-relay", edgeServingChain(t, false, 20), 0, 2e8, netsim.Link{Latency: ms, Mbps: 10}, []core.CutPoint{5, 6}},
		{"fleet acceptance", smallResNetChain(t), 12 * ms, 0, netsim.Link{Latency: 2 * ms, Mbps: 5}, []core.CutPoint{1, 4}},
		{"root benchmark", smallResNetChain(t), 4 * ms, 0, netsim.Link{Latency: ms, Mbps: 20}, []core.CutPoint{1, 4}},
	} {
		rate := f.rate
		if rate == 0 {
			probe, err := profile.LocalPlacement(f.chain, in, profile.Device{Name: "probe", MACsPerSec: 1})
			if err != nil {
				t.Fatal(err)
			}
			rate = float64(probe.Stages[0].Cost.MACs) / f.full.Seconds()
		}
		devs := []profile.Device{{Name: "edge", MACsPerSec: rate}, {Name: "hop1", MACsPerSec: rate}, {Name: "hop2", MACsPerSec: rate}}
		p, err := profile.PlacePipeline(f.chain, in, devs, []netsim.Link{f.uplink, interlink})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Cuts) != len(f.want) || p.Cuts[0] != f.want[0] || p.Cuts[1] != f.want[1] {
			t.Errorf("%s: solved cuts %v, want %v (bottleneck %s)", f.name, p.Cuts, f.want, p.Bottleneck)
		}
	}
}
