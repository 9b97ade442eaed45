package profile

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// servingChain builds an untrained C100-B edge net plus a feature-tail-style
// classifier and flattens the end-to-end chain — the same geometry the
// experiments partition.
func servingChain(t *testing.T) ([]nn.Layer, Shape) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	b, err := models.BuildResNet(rng, models.ResNetEdgeC100(1))
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.BuildMEANetB(rng, b, 2, 20, core.CombineSum)
	if err != nil {
		t.Fatal(err)
	}
	featC := m.MainOutChannels()
	tb, err := models.BuildResNet(rng, models.ResNetSpec{
		InChannels: featC, StemChannels: featC,
		Channels: []int{2 * featC}, Blocks: []int{1}, Strides: []int{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	tail := models.NewClassifier(rng, tb, 20)
	return core.FlattenChain(m.Main, tail.Backbone, tail.Exit), Shape{C: 3, H: 12, W: 12}
}

func TestLocalPlacementMatchesTotalMACs(t *testing.T) {
	chain, in := servingChain(t)
	costs, _, err := chainCosts(chain, in)
	if err != nil {
		t.Fatal(err)
	}
	var total Cost
	for _, c := range costs {
		total = total.Add(c)
	}
	rate := 1e9
	p, err := LocalPlacement(chain, in, Device{Name: "edge", MACsPerSec: rate})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Stages) != 1 || len(p.Cuts) != 0 {
		t.Fatalf("local placement has %d stages, %d cuts", len(p.Stages), len(p.Cuts))
	}
	want := rate / float64(total.MACs)
	if diff := p.Throughput/want - 1; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("local throughput %.3f, want %.3f", p.Throughput, want)
	}
}

func TestPlacePipelineBeatsBaselinesOnConstrainedUplink(t *testing.T) {
	chain, in := servingChain(t)
	costs, _, err := chainCosts(chain, in)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range costs {
		total += c.MACs
	}
	// Three equal devices, each taking 18 ms for the whole chain; a slow
	// 7 Mbps uplink to hop 1 and a fast interlink to hop 2. The raw input is
	// small enough that direct offload is compute-bound, so only splitting
	// the COMPUTE across hops can raise throughput.
	rate := float64(total) / 0.018
	devices := []Device{
		{Name: "edge", MACsPerSec: rate},
		{Name: "hop1", MACsPerSec: rate},
		{Name: "hop2", MACsPerSec: rate},
	}
	links := []netsim.Link{
		{Latency: time.Millisecond, Mbps: 7},
		{Latency: 500 * time.Microsecond, Mbps: 200},
	}
	pipe, err := PlacePipeline(chain, in, devices, links)
	if err != nil {
		t.Fatal(err)
	}
	local, err := LocalPlacement(chain, in, devices[0])
	if err != nil {
		t.Fatal(err)
	}
	direct, err := DirectPlacement(chain, in, links[0], devices[0], devices[2])
	if err != nil {
		t.Fatal(err)
	}
	if pipe.Throughput <= local.Throughput {
		t.Fatalf("pipeline %.1f img/s does not beat all-edge %.1f", pipe.Throughput, local.Throughput)
	}
	if pipe.Throughput <= direct.Throughput {
		t.Fatalf("pipeline %.1f img/s does not beat direct %.1f", pipe.Throughput, direct.Throughput)
	}
	if len(pipe.Cuts) != 2 {
		t.Fatalf("expected 2 cuts, got %v", pipe.Cuts)
	}
	for i, st := range pipe.Stages {
		if st.To <= st.From {
			t.Fatalf("stage %d empty: %+v", i, st)
		}
	}
	// The solved plan's stage times must reproduce its claimed bottleneck.
	var worst float64
	for i, st := range pipe.Stages {
		if st.ComputeSec > worst {
			worst = st.ComputeSec
		}
		if i < len(pipe.Stages)-1 && st.TransferSec > worst {
			worst = st.TransferSec
		}
	}
	if diff := pipe.Throughput*worst - 1; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("throughput %.3f inconsistent with bottleneck %.6fs", pipe.Throughput, worst)
	}
}

func TestPlacePipelineValidation(t *testing.T) {
	chain, in := servingChain(t)
	dev := Device{Name: "d", MACsPerSec: 1e9}
	link := netsim.Link{Latency: time.Millisecond, Mbps: 10}
	if _, err := PlacePipeline(chain, in, nil, nil); err == nil {
		t.Fatal("no devices accepted")
	}
	if _, err := PlacePipeline(chain, in, []Device{dev, dev}, nil); err == nil {
		t.Fatal("missing link accepted")
	}
	if _, err := PlacePipeline(chain, in, []Device{dev, {Name: "z"}}, []netsim.Link{link}); err == nil {
		t.Fatal("zero-rate device accepted")
	}
	devs := make([]Device, len(chain)+1)
	lnks := make([]netsim.Link, len(chain))
	for i := range devs {
		devs[i] = Device{Name: fmt.Sprintf("d%d", i), MACsPerSec: 1e9}
	}
	for i := range lnks {
		lnks[i] = link
	}
	if _, err := PlacePipeline(chain, in, devs, lnks); err == nil {
		t.Fatal("more devices than chain units accepted")
	}
}

func TestPlacePipelineUnknownLayerPropagates(t *testing.T) {
	chain := []nn.Layer{bogusLayer{}, nn.Identity{}}
	dev := Device{Name: "d", MACsPerSec: 1e9}
	_, err := PlacePipeline(chain, Shape{C: 1, H: 1, W: 1},
		[]Device{dev, dev}, []netsim.Link{{Latency: time.Millisecond, Mbps: 10}})
	if err == nil || !strings.Contains(err.Error(), "unsupported layer type") {
		t.Fatalf("unknown layer not surfaced: %v", err)
	}
	if _, err := DirectPlacement(chain, Shape{C: 1, H: 1, W: 1},
		netsim.Link{Latency: time.Millisecond, Mbps: 10}, dev, dev); err == nil {
		t.Fatal("DirectPlacement swallowed the unknown layer")
	}
}

// TestRelayWireBytes pins the solver's wire-size model to the frames that are
// actually sent: the source-routed relay of a single instance, whatever route
// is still ahead of it, and the direct raw offload of one.
func TestRelayWireBytes(t *testing.T) {
	s := Shape{C: 16, H: 6, W: 6}
	act := tensor.New(1, s.C, s.H, s.W)
	for _, bounds := range [][]int{nil, {7}, {7, 9, 11}} {
		payload, err := protocol.EncodeInfer(protocol.InferRequest{Rep: protocol.RepActivation, TTL: 3, Pos: 5, Bounds: bounds, Tensor: act})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := RelayWireBytes(s, len(bounds)), int64(protocol.FrameWireSize(len(payload))); got != want {
			t.Fatalf("RelayWireBytes(%+v, %d) = %d, actual frame is %d bytes", s, len(bounds), got, want)
		}
	}
	chain, in := servingChain(t)
	dev := Device{Name: "d", MACsPerSec: 1e9}
	direct, err := DirectPlacement(chain, in, netsim.Link{Latency: time.Millisecond, Mbps: 10}, dev, dev)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := protocol.EncodeInfer(protocol.InferRequest{Rep: protocol.RepRaw, Tensor: tensor.New(1, in.C, in.H, in.W)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := direct.Stages[0].WireBytes, int64(protocol.FrameWireSize(len(raw))); got != want {
		t.Fatalf("direct offload modeled at %d wire bytes, actual raw batch-of-one frame is %d", got, want)
	}
}

// collectLayers walks every layer reachable from the given roots through the
// composite types FlattenChain and LayerCost understand.
func collectLayers(seen map[string]bool, layers ...nn.Layer) {
	for _, l := range layers {
		if l == nil {
			continue
		}
		seen[fmt.Sprintf("%T", l)] = true
		switch v := l.(type) {
		case *nn.Sequential:
			collectLayers(seen, v.Layers...)
		case *models.Backbone:
			collectLayers(seen, v.Stem)
			for _, g := range v.Groups {
				collectLayers(seen, g)
			}
		case *nn.ResidualBlock:
			collectLayers(seen, v.Body, v.Shortcut)
		case *nn.InvertedResidual:
			collectLayers(seen, v.Body)
		}
	}
}

// TestLayerCostCoversReachableLayers checks that every layer type reachable
// from built MEANets (ResNet and MobileNet flavours) is priced by LayerCost —
// the solver refuses any chain containing a type outside this set, so the
// coverage here is what makes PlacePipeline total over real models.
func TestLayerCostCoversReachableLayers(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	rb, err := models.BuildResNet(rng, models.ResNetEdgeC100(1))
	if err != nil {
		t.Fatal(err)
	}
	rm, err := core.BuildMEANetB(rng, rb, 2, 20, core.CombineSum)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := models.BuildMobileNet(rng, models.MobileNetEdge())
	if err != nil {
		t.Fatal(err)
	}
	mm, err := core.BuildMEANetA(rng, mb, 2, 20)
	if err != nil {
		t.Fatal(err)
	}

	seen := map[string]bool{}
	collectLayers(seen, rm.Main, rm.MainExit, rm.Adaptive, rm.Extension)
	collectLayers(seen, mm.Main, mm.MainExit, mm.Adaptive, mm.Extension)
	for _, want := range []string{
		"*nn.Conv2D", "*nn.DepthwiseConv2D", "*nn.BatchNorm2D",
		"*nn.ReLU", "*nn.ReLU6", "*nn.ResidualBlock", "*nn.InvertedResidual",
		"*nn.GlobalAvgPool", "*nn.Linear", "*nn.Sequential",
	} {
		if !seen[want] {
			t.Fatalf("layer type %s not reachable from test MEANets; coverage walk broken", want)
		}
	}

	// Every reachable composite must be priceable end to end.
	for name, chain := range map[string][]nn.Layer{
		"resnet-main":     core.FlattenChain(rm.Main),
		"mobilenet-main":  core.FlattenChain(mm.Main),
		"resnet-adaptive": {rm.Adaptive},
	} {
		if _, _, err := chainCosts(chain, Shape{C: 3, H: 12, W: 12}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}

	// And the pricing must stay total over the rest of nn's layer zoo that
	// models can reach (pool and flatten variants).
	for _, l := range []nn.Layer{
		&nn.AvgPool2D{K: 2, Stride: 2},
		&nn.MaxPool2D{K: 2, Stride: 2},
		&nn.Flatten{},
		nn.Identity{},
	} {
		if _, _, err := LayerCost(l, Shape{C: 4, H: 8, W: 8}); err != nil {
			t.Fatalf("%T: %v", l, err)
		}
	}
}
