// Package experiments regenerates every table and figure of the paper's
// evaluation section on the synthetic substrate (Runners in all.go is the
// index, in paper order; `meanet-experiments -list` prints it). A Context
// lazily builds and caches the trained edge-cloud systems that the individual
// experiment functions share.
package experiments

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"sync"

	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/metrics"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/profile"
)

// Config selects the workload scale and seeds for an experiment run.
type Config struct {
	Scale data.Scale
	Seed  int64

	// Epoch overrides; 0 selects the scale default.
	MainEpochs  int
	EdgeEpochs  int
	CloudEpochs int

	// Progress, when non-nil, receives coarse progress lines.
	Progress func(format string, args ...any)
}

func (c Config) normalized() Config {
	if c.Scale == 0 {
		c.Scale = data.ScaleSmall
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	var mainE, edgeE, cloudE int
	switch c.Scale {
	case data.ScaleTiny:
		mainE, edgeE, cloudE = 6, 8, 6
	case data.ScaleFull:
		mainE, edgeE, cloudE = 30, 35, 35
	default:
		mainE, edgeE, cloudE = 18, 22, 22
	}
	if c.MainEpochs == 0 {
		c.MainEpochs = mainE
	}
	if c.EdgeEpochs == 0 {
		c.EdgeEpochs = edgeE
	}
	if c.CloudEpochs == 0 {
		c.CloudEpochs = cloudE
	}
	return c
}

func (c Config) logf(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(format, args...)
	}
}

// SystemKey identifies one trained edge configuration, mirroring the four
// model rows of Tables II/III.
type SystemKey string

// The four evaluated systems.
const (
	C100A           SystemKey = "c100-resnet-A"
	C100B           SystemKey = "c100-resnet-B"
	ImageNetResNetB SystemKey = "imagenet-resnet-B"
	ImageNetMobileB SystemKey = "imagenet-mobilenet-B"
)

// AllSystems lists the four evaluated systems in paper order.
func AllSystems() []SystemKey {
	return []SystemKey{C100A, C100B, ImageNetMobileB, ImageNetResNetB}
}

// System is one fully trained edge-cloud stack.
type System struct {
	Key   SystemKey
	Synth *data.Synth
	Train *data.Dataset // training split minus validation
	Val   *data.Dataset // 10% validation split (hard-class selection)

	Edge         *core.MEANet
	Cloud        *models.Classifier
	ValConfusion *metrics.Confusion
	ValEntropy   metrics.EntropyStats

	InShape profile.Shape
	Profile profile.MEANetProfile
}

// MainMACs is the per-instance cost of the always-on main path.
func (s *System) MainMACs() int64 { return s.Profile.Fixed.MACs }

// ExtMACs is the per-instance cost of the extension path.
func (s *System) ExtMACs() int64 { return s.Profile.Trained.MACs }

// Context lazily builds and caches datasets, trained systems and cloud
// models for one (scale, seed) configuration.
type Context struct {
	cfg Config

	mu      sync.Mutex // guards synths, clouds, systems
	synths  map[string]*data.Synth
	clouds  map[string]*models.Classifier
	systems map[SystemKey]*System
}

// NewContext builds an experiment context.
func NewContext(cfg Config) *Context {
	return &Context{
		cfg:     cfg.normalized(),
		synths:  make(map[string]*data.Synth),
		clouds:  make(map[string]*models.Classifier),
		systems: make(map[SystemKey]*System),
	}
}

// Config returns the normalized configuration.
func (ctx *Context) Config() Config { return ctx.cfg }

// dataset returns the cached synthetic dataset for a preset name. The
// caller holds ctx.mu.
func (ctx *Context) dataset(name string) (*data.Synth, error) {
	if s, ok := ctx.synths[name]; ok {
		return s, nil
	}
	var cfg data.SynthConfig
	switch name {
	case "c100":
		cfg = data.SynthC100(ctx.cfg.Scale, ctx.cfg.Seed)
	case "imagenet":
		cfg = data.SynthImageNet(ctx.cfg.Scale, ctx.cfg.Seed+100)
	default:
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	ctx.cfg.logf("generating dataset %s (scale %s)", name, ctx.cfg.Scale)
	s, err := data.Generate(cfg)
	if err != nil {
		return nil, err
	}
	ctx.synths[name] = s
	return s, nil
}

// cloudModel returns the cached trained cloud AI for a dataset. The caller
// holds ctx.mu.
func (ctx *Context) cloudModel(dsName string) (*models.Classifier, error) {
	if c, ok := ctx.clouds[dsName]; ok {
		return c, nil
	}
	synth, err := ctx.dataset(dsName)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(ctx.cfg.Seed + 500))
	groups := 3
	if dsName == "imagenet" {
		groups = 4
	}
	spec := models.ResNetCloud(groups)
	backbone, err := models.BuildResNet(rng, spec)
	if err != nil {
		return nil, err
	}
	cls := models.NewClassifier(rng, backbone, synth.Train.NumClasses)
	cfg := core.DefaultTrainConfig(ctx.cfg.CloudEpochs, ctx.cfg.Seed+501)
	ctx.cfg.logf("training cloud AI for %s (%d epochs)", dsName, cfg.Epochs)
	if err := core.TrainClassifier(cls, synth.Train, cfg); err != nil {
		return nil, err
	}
	ctx.clouds[dsName] = cls
	return cls, nil
}

// edgeBackbone builds the (untrained) edge backbone + MEANet for a system.
func (ctx *Context) edgeMEANet(key SystemKey, seed int64, classes int) (*core.MEANet, error) {
	rng := rand.New(rand.NewSource(seed))
	switch key {
	case C100A:
		b, err := models.BuildResNet(rng, models.ResNetEdgeC100(1))
		if err != nil {
			return nil, err
		}
		return core.BuildMEANetA(rng, b, 2, classes)
	case C100B:
		b, err := models.BuildResNet(rng, models.ResNetEdgeC100(1))
		if err != nil {
			return nil, err
		}
		return core.BuildMEANetB(rng, b, 2, classes, core.CombineSum)
	case ImageNetResNetB:
		b, err := models.BuildResNet(rng, models.ResNetEdgeImageNet(1))
		if err != nil {
			return nil, err
		}
		return core.BuildMEANetB(rng, b, 2, classes, core.CombineSum)
	case ImageNetMobileB:
		b, err := models.BuildMobileNet(rng, models.MobileNetEdge())
		if err != nil {
			return nil, err
		}
		return core.BuildMEANetB(rng, b, 2, classes, core.CombineSum)
	default:
		return nil, fmt.Errorf("experiments: unknown system %q", key)
	}
}

func (key SystemKey) datasetName() string {
	if key == C100A || key == C100B {
		return "c100"
	}
	return "imagenet"
}

// systemSeedOffset gives every system a fixed initialization seed offset, so
// trained weights do not depend on the order in which systems are built.
var systemSeedOffset = map[SystemKey]int64{
	C100A:           17,
	ImageNetResNetB: 34,
	C100B:           51,
	ImageNetMobileB: 68,
}

// System returns the fully trained system for a key, building it on first
// use: main-block pretraining, validation-based hard-class selection
// (Nhard = classes/2, the paper's default), edge adaptation, cloud training
// and profiling.
func (ctx *Context) System(key SystemKey) (*System, error) {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	return ctx.systemLocked(key)
}

func (ctx *Context) systemLocked(key SystemKey) (*System, error) {
	if s, ok := ctx.systems[key]; ok {
		return s, nil
	}
	dsName := key.datasetName()
	synth, err := ctx.dataset(dsName)
	if err != nil {
		return nil, err
	}
	classes := synth.Train.NumClasses
	m, err := ctx.edgeMEANet(key, ctx.cfg.Seed+systemSeedOffset[key], classes)
	if err != nil {
		return nil, err
	}

	splitRng := rand.New(rand.NewSource(ctx.cfg.Seed + 7))
	// The paper holds out 10%; at tiny scales that leaves too few validation
	// images to rank class-wise complexity, so keep at least ~6 per class.
	valFrac := 0.1
	if minFrac := float64(6*classes) / float64(synth.Train.N); minFrac > valFrac {
		valFrac = math.Min(0.3, minFrac)
	}
	val, train := synth.Train.Split(valFrac, splitRng)

	mainCfg := core.DefaultTrainConfig(ctx.cfg.MainEpochs, ctx.cfg.Seed+11)
	ctx.cfg.logf("[%s] training main block (%d epochs)", key, mainCfg.Epochs)
	if err := core.TrainMainBlock(m, train, mainCfg); err != nil {
		return nil, fmt.Errorf("experiments: %s main training: %w", key, err)
	}

	cm, es, err := core.EvaluateMain(m, val, 32)
	if err != nil {
		return nil, err
	}
	dict, err := core.SelectHardClasses(cm, classes/2)
	if err != nil {
		return nil, err
	}
	m.Dict = dict

	edgeCfg := core.DefaultTrainConfig(ctx.cfg.EdgeEpochs, ctx.cfg.Seed+13)
	ctx.cfg.logf("[%s] training edge blocks (%d epochs, %d hard classes)", key, edgeCfg.Epochs, dict.NumHard())
	if err := core.TrainEdgeBlocks(m, train, edgeCfg); err != nil {
		return nil, fmt.Errorf("experiments: %s edge training: %w", key, err)
	}

	cloudCls, err := ctx.cloudModel(dsName)
	if err != nil {
		return nil, err
	}

	inShape := profile.Shape{C: synth.Train.C, H: synth.Train.H, W: synth.Train.W}
	prof, err := profile.ProfileMEANet(m, inShape, 0)
	if err != nil {
		return nil, err
	}
	sys := &System{
		Key:          key,
		Synth:        synth,
		Train:        train,
		Val:          val,
		Edge:         m,
		Cloud:        cloudCls,
		ValConfusion: cm,
		ValEntropy:   es,
		InShape:      inShape,
		Profile:      prof,
	}
	ctx.systems[key] = sys
	return sys, nil
}

// FreshEdgeWithPretrainedMain builds a new MEANet of the same architecture
// as the given system, copies the trained main block (weights and batch-norm
// statistics) into it, and leaves the edge blocks untrained — the starting
// point for the class-selection ablations (Tables IV/V), which retrain the
// edge blocks under different hard-class selections on top of one shared
// pretrained main block.
func (ctx *Context) FreshEdgeWithPretrainedMain(sys *System, seed int64) (*core.MEANet, error) {
	m, err := ctx.edgeMEANet(sys.Key, seed, sys.Synth.Train.NumClasses)
	if err != nil {
		return nil, err
	}
	if err := copyMain(sys.Edge, m); err != nil {
		return nil, err
	}
	return m, nil
}

// copyMain transplants the trained main block (weights and batch-norm
// statistics) from src into a structurally identical dst.
func copyMain(src, dst *core.MEANet) error {
	var buf bytes.Buffer
	if err := models.SaveWeights(&buf, src.Main, src.MainExit); err != nil {
		return fmt.Errorf("experiments: snapshot main: %w", err)
	}
	if err := models.LoadWeights(bytes.NewReader(buf.Bytes()), dst.Main, dst.MainExit); err != nil {
		return fmt.Errorf("experiments: restore main: %w", err)
	}
	return nil
}

// buildC100Backbone constructs the shared CIFAR-like edge backbone.
func buildC100Backbone(rng *rand.Rand) (*models.Backbone, error) {
	return models.BuildResNet(rng, models.ResNetEdgeC100(1))
}
