// Package meanet is the public API of the MEANet reproduction — the
// edge-cloud distributed AI system of "Complexity-aware Adaptive Training
// and Inference for Edge-Cloud Distributed AI Systems" (ICDCS 2021).
//
// The package re-exports the user-facing types of the internal packages and
// provides a high-level pipeline that runs the paper's Algorithm 1 end to
// end. The building blocks:
//
//   - Dataset / SynthConfig — synthetic image-classification data with
//     controllable class-wise and instance-wise complexity;
//   - Backbone / MEANet — ResNet- or MobileNetV2-style networks restructured
//     into main, extension and adaptive blocks (Fig 4);
//   - TrainDistributed — cloud-side main-block pretraining, FDR-based
//     hard-class selection and blockwise edge adaptation (Algorithm 1);
//   - Policy / InferBatchedRep / Runtime — complexity-aware inference with entropy-
//     gated cloud offload (Algorithm 2), over in-process or real TCP
//     transports (CloudServer / DialCloud);
//   - CostModel / WiFiModel — the paper's Table I/VII energy algebra.
//
// See examples/ for runnable walk-throughs and README.md for the serving
// system, section by section.
package meanet

import (
	"fmt"
	"math/rand"

	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/data"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/energy"
	"github.com/meanet/meanet/internal/linkest"
	"github.com/meanet/meanet/internal/metrics"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/profile"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// Tensor and dataset substrate.
type (
	// Tensor is a dense float32 NCHW tensor.
	Tensor = tensor.Tensor
	// Dataset is an in-memory labelled image set.
	Dataset = data.Dataset
	// SynthConfig parameterizes the synthetic dataset generator.
	SynthConfig = data.SynthConfig
	// Synth bundles generated train/test splits.
	Synth = data.Synth
	// Scale selects preset dataset sizes.
	Scale = data.Scale
)

// Dataset scales.
const (
	ScaleTiny  = data.ScaleTiny
	ScaleSmall = data.ScaleSmall
	ScaleFull  = data.ScaleFull
)

// Model zoo.
type (
	// Backbone is a stage-structured CNN feature extractor.
	Backbone = models.Backbone
	// ResNetSpec describes a ResNet-style backbone.
	ResNetSpec = models.ResNetSpec
	// MobileNetSpec describes a MobileNetV2-style backbone.
	MobileNetSpec = models.MobileNetSpec
	// Classifier is a backbone plus exit (e.g. the cloud AI).
	Classifier = models.Classifier
)

// Core MEANet types.
type (
	// MEANet is the tripartite edge network (main/extension/adaptive).
	MEANet = core.MEANet
	// CombineMode selects how adaptive features join main features.
	CombineMode = core.CombineMode
	// ClassDict maps hard classes to the dense extension-exit label space.
	ClassDict = core.ClassDict
	// TrainConfig controls a training run.
	TrainConfig = core.TrainConfig
	// Policy configures Algorithm 2 inference.
	Policy = core.Policy
	// Decision is the per-instance outcome of Algorithm 2.
	Decision = core.Decision
	// ExitPoint says where an instance's inference terminated.
	ExitPoint = core.ExitPoint
	// CloudBatchFunc classifies a stacked batch on the cloud in one round
	// trip, with per-instance error granularity.
	CloudBatchFunc = core.CloudBatchFunc
	// OffloadRep is the resolved upload representation of a batched offload.
	OffloadRep = core.OffloadRep
	// EvalReport scores an inference run.
	EvalReport = core.EvalReport
	// HardnessDetector is the optional learned easy/hard detector (§III-B).
	HardnessDetector = core.HardnessDetector
	// Confusion is a confusion matrix with precision/FDR accessors.
	Confusion = metrics.Confusion
	// EntropyStats summarizes prediction entropies (threshold selection).
	EntropyStats = metrics.EntropyStats
)

// Combination modes and exit points.
const (
	CombineSum      = core.CombineSum
	CombineConcat   = core.CombineConcat
	CombineMainOnly = core.CombineMainOnly

	ExitMain      = core.ExitMain
	ExitExtension = core.ExitExtension
	ExitCloud     = core.ExitCloud

	RepRaw      = core.RepRaw
	RepFeatures = core.RepFeatures

	OffloadRaw      = edge.OffloadRaw
	OffloadFeatures = edge.OffloadFeatures
	OffloadAuto     = edge.OffloadAuto
)

// Distributed system types.
type (
	// CloudServer serves classification requests over TCP.
	CloudServer = cloud.Server
	// CloudClient is the classic call surface of an edge-side cloud
	// transport (raw images in, predictions out).
	CloudClient = edge.CloudClient
	// Transport is one edge-side connection to the cloud tier: one Infer
	// call for every representation, plus its live signals.
	Transport = edge.Transport
	// CloudTail is the cloud half of a partitioned network (features mode).
	CloudTail = cloud.Tail
	// OffloadMode selects the upload representation (raw/features/auto).
	OffloadMode = edge.OffloadMode
	// TCPClient talks to a CloudServer over TCP.
	TCPClient = edge.TCPClient
	// InProcClient serves cloud requests in-process (simulation).
	InProcClient = edge.InProcClient
	// DialConfig configures the TCP client.
	DialConfig = edge.DialConfig
	// Runtime executes Algorithm 2 with accounting.
	Runtime = edge.Runtime
	// RuntimeReport summarizes a runtime's activity.
	RuntimeReport = edge.Report
	// CostParams parameterizes runtime energy accounting.
	CostParams = edge.CostParams
	// Link models a network path (latency + bandwidth).
	Link = netsim.Link
	// LinkEstimate is a live uplink snapshot (RTT, throughput, samples)
	// measured by the TCP client's link estimator.
	LinkEstimate = linkest.Estimate
	// AdaptConfig tunes the closed-loop adaptation (latency-budget
	// threshold control and live auto-mode representation choice).
	AdaptConfig = edge.AdaptConfig
	// CloudLoadStatus is the server backpressure signal piggybacked on
	// replies.
	CloudLoadStatus = protocol.LoadStatus
	// ShedPolicy bounds the load a CloudServer accepts before answering
	// classify requests with shed frames (admission control).
	ShedPolicy = cloud.ShedPolicy
	// ShedError is the typed error a shed offload surfaces as on the edge
	// (match with errors.Is(err, ErrShed)).
	ShedError = edge.ShedError
)

// Cost model types.
type (
	// WiFiModel is the paper's upload power model.
	WiFiModel = energy.WiFiModel
	// ComputeModel converts MACs to edge latency and energy.
	ComputeModel = energy.ComputeModel
	// CostModel instantiates the Table I algebra.
	CostModel = energy.CostModel
	// EnergyBreakdown splits energy into compute and communication.
	EnergyBreakdown = energy.Breakdown
	// ModelProfile decomposes a MEANet into fixed/trained cost (Table VI).
	ModelProfile = profile.MEANetProfile
	// ProfileShape is a CHW input geometry.
	ProfileShape = profile.Shape
)

// Re-exported constructors (thin aliases so downstream code never needs the
// internal import paths).
var (
	// Generate builds a synthetic dataset.
	Generate = data.Generate
	// SynthC100 is the CIFAR-100-like preset.
	SynthC100 = data.SynthC100
	// SynthImageNet is the ImageNet-like preset.
	SynthImageNet = data.SynthImageNet

	// BuildResNet constructs a ResNet backbone.
	BuildResNet = models.BuildResNet
	// BuildMobileNet constructs a MobileNetV2-style backbone.
	BuildMobileNet = models.BuildMobileNet
	// NewClassifier attaches an exit to a backbone.
	NewClassifier = models.NewClassifier

	// BuildMEANetA restructures a backbone per Fig 4A.
	BuildMEANetA = core.BuildMEANetA
	// BuildMEANetB wraps a complete backbone per Fig 4B.
	BuildMEANetB = core.BuildMEANetB

	// DefaultTrainConfig mirrors the paper's recipe.
	DefaultTrainConfig = core.DefaultTrainConfig
	// TrainMainBlock pretrains the main block (Algorithm 1 step 1).
	TrainMainBlock = core.TrainMainBlock
	// TrainClassifier trains a complete CNN (e.g. the cloud AI).
	TrainClassifier = core.TrainClassifier
	// TrainEdgeBlocks adapts the edge blocks on hard data (steps 5-8).
	TrainEdgeBlocks = core.TrainEdgeBlocks
	// TrainEdgeBlocksWithReplay continually adapts on new environment data
	// mixed with replayed samples (§III-A).
	TrainEdgeBlocksWithReplay = core.TrainEdgeBlocksWithReplay
	// NewHardnessDetector / TrainDetector implement the optional binary
	// easy/hard detector.
	NewHardnessDetector = core.NewHardnessDetector
	TrainDetector       = core.TrainDetector
	// SelectHardClasses ranks classes by validation precision (step 2).
	SelectHardClasses = core.SelectHardClasses
	// EvaluateMain evaluates the main path on a dataset.
	EvaluateMain = core.EvaluateMain
	// Evaluate runs and scores Algorithm 2 over a dataset.
	Evaluate = core.Evaluate
	// EstimateThresholdRange returns (µ_correct, µ_wrong) from validation.
	EstimateThresholdRange = core.EstimateThresholdRange

	// NewCloudServer builds a TCP classification server.
	NewCloudServer = cloud.NewServer
	// WithShedding enables admission control on a CloudServer.
	WithShedding = cloud.WithShedding
	// ErrShed is the sentinel for offloads refused by cloud admission
	// control (the edge falls back without burning retries).
	ErrShed = edge.ErrShed
	// DialCloud connects to a cloud server.
	DialCloud = edge.DialCloud
	// NewRuntime builds an edge inference runtime.
	NewRuntime = edge.NewRuntime
	// Offload is the CloudBatchFunc over a transport: one round trip per
	// batch, in the given representation.
	Offload = edge.Offload
	// ParseOffloadMode parses raw|features|auto.
	ParseOffloadMode = edge.ParseOffloadMode
	// Partitioned composes an edge main block with a features tail into a
	// raw cloud model (bitwise-identical answers for both representations).
	Partitioned = cloud.Partitioned

	// DefaultWiFi returns the paper's WiFi constants.
	DefaultWiFi = energy.DefaultWiFi
	// ProfileMEANet computes the fixed/trained cost decomposition.
	ProfileMEANet = profile.ProfileMEANet
	// SaveWeights / LoadWeights persist raw layer weights.
	SaveWeights = models.SaveWeights
	LoadWeights = models.LoadWeights
	// SaveState / LoadState persist a complete deployable MEANet (weights,
	// batch-norm statistics and the hard-class dictionary).
	SaveState = core.SaveState
	LoadState = core.LoadState
)

// DistributedTrainingResult reports what Algorithm 1 produced.
type DistributedTrainingResult struct {
	HardClasses  []int        // selected hard classes (original labels)
	ThresholdLo  float64      // µ_correct on the validation split
	ThresholdHi  float64      // µ_wrong on the validation split
	ThresholdOK  bool         // whether the range is usable
	ValConfusion *Confusion   // main-block validation confusion matrix
	ValEntropy   EntropyStats // validation entropy statistics
}

// TrainDistributed runs Algorithm 1 end to end on a MEANet: it pretrains the
// main block on the full training set ("at the cloud"), carves a validation
// split to rank class-wise complexity, selects nHard hard classes, and
// adapts the extension and adaptive blocks on hard-class data with the main
// block frozen ("at the edge"). valFraction is the held-out share used for
// class ranking (the paper uses 0.1).
func TrainDistributed(m *MEANet, train *Dataset, nHard int, valFraction float64,
	mainCfg, edgeCfg TrainConfig) (*DistributedTrainingResult, error) {
	if valFraction <= 0 || valFraction >= 1 {
		return nil, fmt.Errorf("meanet: validation fraction %v outside (0,1)", valFraction)
	}
	rng := rand.New(rand.NewSource(mainCfg.Seed))
	val, fit := train.Split(valFraction, rng)
	if err := core.TrainMainBlock(m, fit, mainCfg); err != nil {
		return nil, fmt.Errorf("meanet: main-block pretraining: %w", err)
	}
	cm, es, err := core.EvaluateMain(m, val, 64)
	if err != nil {
		return nil, fmt.Errorf("meanet: validation: %w", err)
	}
	dict, err := core.SelectHardClasses(cm, nHard)
	if err != nil {
		return nil, fmt.Errorf("meanet: hard-class selection: %w", err)
	}
	m.Dict = dict
	if err := core.TrainEdgeBlocks(m, fit, edgeCfg); err != nil {
		return nil, fmt.Errorf("meanet: edge adaptation: %w", err)
	}
	lo, hi, ok := es.ThresholdRange()
	return &DistributedTrainingResult{
		HardClasses:  append([]int(nil), dict.FromHard...),
		ThresholdLo:  lo,
		ThresholdHi:  hi,
		ThresholdOK:  ok,
		ValConfusion: cm,
		ValEntropy:   es,
	}, nil
}
