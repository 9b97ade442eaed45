// Package deploy is where the edge-cloud stack is built and wired. It builds
// the deterministic artefacts the two service commands (meanet-edge and
// meanet-cloud) must agree on: both ends derive everything from the same
// (dataset, scale, seed, variant) tuple — the synthetic dataset, the edge
// MEANet architecture, and, for the §III-C "sending features" collaboration
// mode, the trained main block whose feature geometry the cloud-side tail
// continues from. Centralizing the construction here keeps the two commands
// bitwise consistent: a drift in seeds or training order between them would
// silently break the partitioned-network mode. It also wires the serving
// path the same way for every caller — the commands, the fleet harness and
// the examples: DialTier dials the cloud tier, EdgeCost prices the edge
// runtime, and Stream runs a dataset through it.
package deploy

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/metrics"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/profile"
)

// EdgeSpec pins the deterministic inputs of the edge-side construction.
type EdgeSpec struct {
	Dataset string // "c100" or "imagenet"
	Scale   data.Scale
	Seed    int64
	Variant string // "A" or "B"
	Epochs  int    // training epochs per phase (main block, edge blocks)

	// Progress, when non-nil, receives coarse progress lines.
	Progress func(format string, args ...any)
}

func (s EdgeSpec) logf(format string, args ...any) {
	if s.Progress != nil {
		s.Progress(format, args...)
	}
}

// ParseScale maps a -scale flag value to a data.Scale.
func ParseScale(name string) (data.Scale, error) {
	switch name {
	case "tiny":
		return data.ScaleTiny, nil
	case "small":
		return data.ScaleSmall, nil
	case "full":
		return data.ScaleFull, nil
	default:
		return 0, fmt.Errorf("deploy: unknown scale %q (want tiny, small or full)", name)
	}
}

// GeneratePreset builds the synthetic dataset for a preset name; edge and
// cloud call it with the same arguments and obtain identical data.
func GeneratePreset(name string, scale data.Scale, seed int64) (*data.Synth, error) {
	switch name {
	case "c100":
		return data.Generate(data.SynthC100(scale, seed))
	case "imagenet":
		return data.Generate(data.SynthImageNet(scale, seed+100))
	default:
		return nil, fmt.Errorf("deploy: unknown dataset %q (want c100 or imagenet)", name)
	}
}

// BuildEdgeNet constructs the (untrained) edge MEANet for a spec. The rng
// seed offset matches the historical meanet-edge construction, so deployed
// weights stay reproducible across releases.
func BuildEdgeNet(spec EdgeSpec, classes int) (*core.MEANet, error) {
	rng := rand.New(rand.NewSource(spec.Seed + 17))
	var backbone *models.Backbone
	var err error
	if spec.Dataset == "c100" {
		backbone, err = models.BuildResNet(rng, models.ResNetEdgeC100(1))
	} else {
		backbone, err = models.BuildResNet(rng, models.ResNetEdgeImageNet(1))
	}
	if err != nil {
		return nil, err
	}
	switch spec.Variant {
	case "A":
		return core.BuildMEANetA(rng, backbone, len(backbone.Groups)-1, classes)
	case "B":
		return core.BuildMEANetB(rng, backbone, 2, classes, core.CombineSum)
	default:
		return nil, fmt.Errorf("deploy: unknown variant %q (want A or B)", spec.Variant)
	}
}

// TrainedMain holds the outcome of the deterministic main-block pipeline.
type TrainedMain struct {
	Net   *core.MEANet
	Train *data.Dataset // training split minus validation
	Val   *data.Dataset // 10% validation split
	// Validation diagnostics (hard-class selection, threshold range).
	Confusion *metrics.Confusion
	Entropy   metrics.EntropyStats
}

// TrainMain runs the main-block half of Algorithm 1 deterministically:
// validation split, pretraining and validation evaluation, with all seeds
// derived from the spec. An edge and a cloud running TrainMain with the same
// spec and dataset hold bitwise-identical main blocks — the premise of the
// partitioned features mode.
func TrainMain(spec EdgeSpec, m *core.MEANet, synth *data.Synth) (*TrainedMain, error) {
	mainCfg := core.DefaultTrainConfig(spec.Epochs, spec.Seed+11)
	if spec.Progress != nil {
		mainCfg.Progress = func(epoch int, loss float64) {
			spec.logf("main block epoch %d loss %.4f", epoch+1, loss)
		}
	}
	splitRng := rand.New(rand.NewSource(mainCfg.Seed))
	val, train := synth.Train.Split(0.1, splitRng)
	spec.logf("training main block (%d epochs)", mainCfg.Epochs)
	if err := core.TrainMainBlock(m, train, mainCfg); err != nil {
		return nil, err
	}
	cm, es, err := core.EvaluateMain(m, val, 64)
	if err != nil {
		return nil, err
	}
	return &TrainedMain{Net: m, Train: train, Val: val, Confusion: cm, Entropy: es}, nil
}

// TrainEdge runs all of Algorithm 1 for the edge network: TrainMain, then the
// half of the classes the main block is least precise on become the hard
// classes, and the edge blocks train on them over the same split. It returns
// TrainMain's outcome, so the validation confusion and threshold range stay
// available; meanet-train and meanet-edge both deploy exactly this recipe.
func TrainEdge(spec EdgeSpec, m *core.MEANet, synth *data.Synth) (*TrainedMain, error) {
	tm, err := TrainMain(spec, m, synth)
	if err != nil {
		return nil, err
	}
	if m.Dict, err = core.SelectHardClasses(tm.Confusion, synth.Train.NumClasses/2); err != nil {
		return nil, err
	}
	edgeCfg := core.DefaultTrainConfig(spec.Epochs, spec.Seed+13)
	if spec.Progress != nil {
		edgeCfg.Progress = func(epoch int, loss float64) {
			spec.logf("edge blocks epoch %d loss %.4f", epoch+1, loss)
		}
	}
	if err := core.TrainEdgeBlocks(m, tm.Train, edgeCfg); err != nil {
		return nil, err
	}
	return tm, nil
}

// TrainTail trains the cloud half of the partitioned network: a small
// residual classifier over the frozen main block's feature maps, returned as
// a serving tail. seed and epochs are explicit so callers outside the
// deploy pipeline (meanet-cloud, the benchmark) can reuse it.
func TrainTail(m *core.MEANet, train *data.Dataset, seed int64, epochs int,
	progress func(format string, args ...any)) (*cloud.Tail, error) {
	feats, err := m.FeatureDataset(train, 64)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	cls, err := BuildTailNet(rng, feats.C, feats.NumClasses)
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultTrainConfig(epochs, seed+1)
	if progress != nil {
		progress("training features tail (%d epochs over %d×%d×%d features)",
			epochs, feats.C, feats.H, feats.W)
	}
	if err := core.TrainClassifier(cls, feats, cfg); err != nil {
		return nil, err
	}
	// The classifier's backbone is one nn.Sequential, so the tail forwards
	// through the same layers, in the same order, as the classifier trained.
	return &cloud.Tail{Body: cls.Backbone, Exit: cls.Exit}, nil
}

// BuildTailNet constructs the (untrained) features-tail classifier for a
// main block whose feature maps have featC channels: the architecture
// TrainTail trains and the serving-chain construction flattens. Keeping the
// geometry in one place is what guarantees an edge planning cut points and a
// cloud serving stages agree on the chain structure.
func BuildTailNet(rng *rand.Rand, featC, classes int) (*models.Classifier, error) {
	spec := models.ResNetSpec{
		Name:         "feattail",
		InChannels:   featC,
		StemChannels: featC,
		Channels:     []int{2 * featC},
		Blocks:       []int{1},
		Strides:      []int{1},
	}
	backbone, err := models.BuildResNet(rng, spec)
	if err != nil {
		return nil, err
	}
	return models.NewClassifier(rng, backbone, classes), nil
}

// ServingChain flattens a partitioned deployment — the edge main block
// followed by the cloud tail — into the ordered chain of atomic units that
// core.Partition cuts into relay stages. The chain reuses the deployment's
// layer objects, so stage forwards are bitwise identical to the monolithic
// cloud.Partitioned(m.Main, tail) forward for every legal cut.
func ServingChain(m *core.MEANet, tail *cloud.Tail) []nn.Layer {
	return core.FlattenChain(m.Main, tail.Body, tail.Exit)
}

// MainBoundary is the cut point at which a single-cut partition of
// ServingChain reproduces today's main↔tail deployment exactly: everything
// before it is the edge main block, everything after is the cloud tail.
func MainBoundary(m *core.MEANet) core.CutPoint {
	return core.CutPoint(len(core.FlattenChain(m.Main)))
}

// ParseCuts parses a -cuts flag value ("6" or "6,9") into strictly
// increasing cut points; core.Partition validates them against the chain.
func ParseCuts(s string) ([]core.CutPoint, error) {
	var cuts []core.CutPoint
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			return nil, fmt.Errorf("deploy: empty cut point in %q", s)
		}
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("deploy: bad cut point %q: %w", part, err)
		}
		if v <= 0 {
			return nil, fmt.Errorf("deploy: cut point %d must be positive", v)
		}
		if n := len(cuts); n > 0 && core.CutPoint(v) <= cuts[n-1] {
			if core.CutPoint(v) == cuts[n-1] {
				// Named separately from the ordering error: a duplicated cut is
				// almost always a copy-paste slip in a long -cuts list, and
				// "must be strictly increasing, got 6 after 6" buries it.
				return nil, fmt.Errorf("deploy: duplicate cut point %d", v)
			}
			return nil, fmt.Errorf("deploy: cut points must be strictly increasing, got %d after %d", v, cuts[n-1])
		}
		cuts = append(cuts, core.CutPoint(v))
	}
	if len(cuts) == 0 {
		return nil, fmt.Errorf("deploy: no cut points in %q", s)
	}
	return cuts, nil
}

// ParseRates parses a -plan-rates value: one compute rate in MACs/s per
// device, comma-separated, each finite and positive. The first device is
// named "edge", the rest "hop1", "hop2", ...
func ParseRates(s string) ([]profile.Device, error) {
	var devices []profile.Device
	for i, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return nil, fmt.Errorf("deploy: bad rate %q: %w", part, err)
		}
		if !(v > 0) || math.IsInf(v, 1) {
			return nil, fmt.Errorf("deploy: rate %q, want a finite MACs/s > 0", part)
		}
		name := fmt.Sprintf("hop%d", i)
		if i == 0 {
			name = "edge"
		}
		devices = append(devices, profile.Device{Name: name, MACsPerSec: v})
	}
	return devices, nil
}

// ParseLinks parses a -plan-links value: one Mbps@latency entry per hop
// ("7@1ms"), comma-separated, ordered edge→hop1, hop1→hop2, ...; each must
// pass netsim.Link.Validate.
func ParseLinks(s string) ([]netsim.Link, error) {
	var links []netsim.Link
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		mbpsStr, latStr, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("deploy: bad link %q (want Mbps@latency, e.g. 7@1ms)", part)
		}
		mbps, err := strconv.ParseFloat(mbpsStr, 64)
		if err != nil {
			return nil, fmt.Errorf("deploy: bad link bandwidth %q: %w", mbpsStr, err)
		}
		lat, err := time.ParseDuration(latStr)
		if err != nil {
			return nil, fmt.Errorf("deploy: bad link latency %q: %w", latStr, err)
		}
		link := netsim.Link{Latency: lat, Mbps: mbps}
		if err := link.Validate(); err != nil {
			return nil, fmt.Errorf("deploy: bad link %q: %w", part, err)
		}
		links = append(links, link)
	}
	return links, nil
}

// DefaultEpochs is the scale default both commands share for edge training.
func DefaultEpochs(scale data.Scale) int {
	switch scale {
	case data.ScaleTiny:
		return 8
	case data.ScaleFull:
		return 30
	default:
		return 18
	}
}
