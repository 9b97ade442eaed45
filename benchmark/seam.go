package main

// seam.go is the ONLY file of the benchmark that imports the repository. It
// lists every entry point the benchmark binds to; a refactor that keeps these
// names source-compatible keeps the benchmark building, and since a PR that
// claims a gain may not edit benchmark/, this list is the compatibility
// surface later PRs must preserve (seam_test.go enforces the "only file"
// half).
//
// Rules the list follows:
//
//   - prefer the root meanet package's re-exports over internal paths;
//   - call transports only through edge.CloudClient and the small interfaces
//     declared below (byte counter, link estimator), never through the
//     concrete TCPClient method set;
//   - avoid what the ROADMAP slates for deletion: core.Infer,
//     core.SerialOffload, edge.NewChainClient, RelayActivations*.
//
// The one stated exception: cloud-fanin needs the single-instance
// ClassifyFeatures method, today's only path into the server's micro-batcher
// (MsgClassifyFeat → featBatch). It is reached through the featureOne
// interface below, so the transport-collapse PR keeps a method of that shape
// (a batch-of-one over its new frame) on whatever DialCloud returns.

import (
	"fmt"
	"io"

	"github.com/meanet/meanet"
	"github.com/meanet/meanet/internal/cloud"
	"github.com/meanet/meanet/internal/core"
	"github.com/meanet/meanet/internal/deploy"
	"github.com/meanet/meanet/internal/edge"
	"github.com/meanet/meanet/internal/models"
	"github.com/meanet/meanet/internal/netsim"
	"github.com/meanet/meanet/internal/nn"
	"github.com/meanet/meanet/internal/opt"
	"github.com/meanet/meanet/internal/profile"
	"github.com/meanet/meanet/internal/protocol"
	"github.com/meanet/meanet/internal/tensor"
)

// Types (root re-exports first).
type (
	Tensor       = meanet.Tensor
	Dataset      = meanet.Dataset
	MEANet       = meanet.MEANet
	Policy       = meanet.Policy
	Decision     = meanet.Decision
	CloudClient  = meanet.CloudClient
	CloudServer  = meanet.CloudServer
	CloudTail    = meanet.CloudTail
	DialConfig   = meanet.DialConfig
	Runtime      = meanet.Runtime
	Link         = meanet.Link
	LinkEstimate = meanet.LinkEstimate
	LoadStatus   = meanet.CloudLoadStatus
	Shape        = meanet.ProfileShape

	Layer        = nn.Layer
	CutPoint     = core.CutPoint
	Device       = profile.Device
	ServerOption = cloud.Option
	BatchConfig  = cloud.BatchConfig
	MultiConfig  = edge.MultiConfig
	ReplicaStats = edge.ReplicaStats
	ChainStats   = edge.ChainStats
)

const (
	scaleTiny     = meanet.ScaleTiny
	scaleSmall    = meanet.ScaleSmall
	exitMain      = meanet.ExitMain
	exitExtension = meanet.ExitExtension
	exitCloud     = meanet.ExitCloud
	repRaw        = meanet.RepRaw
	offloadRaw    = meanet.OffloadRaw
)

// Entry points, grouped by the repo module ("layer") they belong to.
var (
	// data
	synthC100 = meanet.SynthC100
	generate  = meanet.Generate

	// models / core: build and train (Algorithm 1)
	buildResNet        = meanet.BuildResNet
	resNetEdgeC100     = models.ResNetEdgeC100
	buildMEANetA       = meanet.BuildMEANetA
	defaultTrainConfig = meanet.DefaultTrainConfig
	trainMainBlock     = meanet.TrainMainBlock
	evaluateMain       = meanet.EvaluateMain
	selectHardClasses  = meanet.SelectHardClasses
	trainEdgeBlocks    = meanet.TrainEdgeBlocks
	hardSubsetAccuracy = core.HardSubsetAccuracy
	saveState          = meanet.SaveState
	loadState          = meanet.LoadState
	flattenChain       = core.FlattenChain

	// deploy: the features tail and the serving chain
	trainTail    = deploy.TrainTail
	servingChain = deploy.ServingChain

	// cloud
	newCloudServer = meanet.NewCloudServer
	partitioned    = meanet.Partitioned
	withBatching   = cloud.WithBatching

	// edge
	newRuntime = meanet.NewRuntime

	// netsim
	shapeConn = netsim.Shape

	// profile
	placePipeline = profile.PlacePipeline
	chainCosts    = profile.ChainCosts

	// protocol
	encodeTensor  = protocol.EncodeTensor
	decodeTensor  = protocol.DecodeTensor
	frameWireSize = protocol.FrameWireSize

	// tensor / nn / opt
	newTensor           = tensor.New
	matMul              = tensor.MatMul
	softmaxCrossEntropy = nn.SoftmaxCrossEntropy
	zeroGrads           = nn.ZeroGrads
	newSGD              = opt.NewSGD
)

// identityLayer is the no-op tail body of cloud-fanin's one-GAP+FC tail.
func identityLayer() Layer { return nn.Identity{} }

// sequentialOf wraps one (decorated) layer so it can stand where a MEANet
// block is typed *nn.Sequential.
func sequentialOf(l Layer) *nn.Sequential { return nn.NewSequential("traced", l) }

// logitModel is what cloud.NewServer accepts as its raw model (cloud.Model):
// the benchmark's decorators and its zero-CPU sleep model implement it.
type logitModel interface {
	Logits(x *Tensor, train bool) *Tensor
}

// transport is an edge-side cloud connection seen only through interfaces:
// the CloudClient call surface plus the read-only signals the benchmark
// checks (wire bytes sent, the live link estimate) or must keep visible to
// the replica router when it decorates a replica (the piggybacked load).
type transport interface {
	CloudClient
	BytesSent() uint64
	LinkEstimate() LinkEstimate
	CloudLoad() (LoadStatus, bool)
}

// featureOne is the stated exception (see the file comment): one CHW feature
// tensor per request, the only path into the server's micro-batcher.
type featureOne interface {
	transport
	ClassifyFeatures(feat *Tensor) (pred int, conf float64, err error)
}

// chainTransport is a routed chain client seen through interfaces.
type chainTransport interface {
	transport
	ChainStats() ChainStats
}

// multiTransport is the replica router seen through interfaces.
type multiTransport interface {
	CloudClient
	BytesSent() uint64
	ReplicaStats() []ReplicaStats
}

// dialCloud connects to a cloud server. With cfg.Redial set the caller owns
// the connection (the conn seam); otherwise cfg.Link shapes the uplink.
func dialCloud(addr string, cfg DialConfig) (featureOne, error) {
	return edge.DialCloud(addr, cfg)
}

// dialRoutedChain connects to the first hop of a source-routed chain whose
// every hop holds the same unit-granular chain; replan stays off.
func dialRoutedChain(addr string, cfg DialConfig, chain []Layer, cuts []CutPoint) (chainTransport, error) {
	next, err := edge.DialCloud(addr, cfg)
	if err != nil {
		return nil, err
	}
	cc, err := edge.NewRoutedChainClient(next, edge.ChainConfig{Chain: chain, Cuts: cuts})
	if err != nil {
		next.Close()
		return nil, err
	}
	return cc, nil
}

// newMulti builds the replica router over already-dialed transports.
func newMulti(clients []CloudClient, addrs []string, cfg MultiConfig) (multiTransport, error) {
	return edge.NewMultiClient(clients, addrs, cfg)
}

// withStage configures a routed stage hop over chain; downAddr == "" marks
// the terminal hop. The returned closer owns the hop's downstream transport.
func withStage(chain []Layer, downAddr string, downCfg DialConfig) (ServerOption, io.Closer, error) {
	cfg := cloud.StageConfig{Chain: chain}
	var closer io.Closer
	if downAddr != "" {
		down, err := edge.DialCloud(downAddr, downCfg)
		if err != nil {
			return nil, nil, fmt.Errorf("dial downstream %s: %w", downAddr, err)
		}
		cfg.Downstream = down
		closer = down
	}
	return cloud.WithStage(cfg), closer, nil
}
