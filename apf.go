// Package apf is a Go implementation of Adaptive Parameter Freezing (APF)
// — the communication-efficient federated-learning scheme of Chen et al.,
// "Communication-Efficient Federated Learning with Adaptive Parameter
// Freezing" (IEEE ICDCS 2021; extended in IEEE TPDS 2023) — together with
// everything needed to use and evaluate it: a from-scratch neural-network
// substrate, a federated-learning engine, competing compression schemes
// (Gaia, CMFL, fp16 quantization), a real TCP transport, and the paper's
// full experiment suite.
//
// This file is the library's public API: a curated facade over the
// implementation packages. The typical flow is
//
//	ds := apf.SynthImages(apf.ImageConfig{...})                  // or your own Dataset
//	parts := apf.PartitionDirichlet(rng, ds.Labels, 10, 50, 1.0) // non-IID split
//	engine := apf.NewEngine(cfg, model, optimizer, apf.ManagerFactoryFor(apfCfg), ds, parts, test)
//	result := engine.Run()
//
// where apfCfg configures the APF manager (stability threshold, check
// frequency, AIMD policy, APF#/APF++ random freezing). See the runnable
// programs under examples/ and the experiment harness in cmd/apfbench.
package apf

import (
	"apf/internal/compress"
	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/models"
	"apf/internal/nn"
	"apf/internal/opt"
	"apf/internal/perturb"
	"apf/internal/tensor"
	"apf/internal/transport"
)

// ---- The APF manager (the paper's contribution) ----

type (
	// Manager is the per-client APF synchronization manager: it
	// identifies stable parameters by effective perturbation, freezes
	// them for adaptively controlled periods, and elides them from both
	// synchronization phases.
	Manager = core.Manager
	// ManagerConfig configures a Manager; zero fields take the paper's
	// defaults (threshold 0.05, EMA α 0.99, checks every 5 rounds,
	// threshold decay at 80%, AIMD policy).
	ManagerConfig = core.Config
	// FreezePolicy controls freezing-period evolution across checks.
	FreezePolicy = core.FreezePolicy
	// AIMD is the paper's TCP-style additively-increase,
	// multiplicatively-decrease policy.
	AIMD = core.AIMD
	// PureAdditive is the Fig. 15 ablation policy.
	PureAdditive = core.PureAdditive
	// PureMultiplicative is the Fig. 15 ablation policy.
	PureMultiplicative = core.PureMultiplicative
	// Fixed freezes for a constant number of checks (Fig. 15).
	Fixed = core.Fixed
	// Permanent never unfreezes (the §4.1 strawman).
	Permanent = core.Permanent
	// RandomFreeze configures the APF# / APF++ extensions.
	RandomFreeze = core.RandomFreeze
	// RandomFreezeMode selects the extension behaviour.
	RandomFreezeMode = core.RandomFreezeMode
)

// Random-freezing modes re-exported from the implementation.
const (
	// RandomOff disables random freezing (standard APF).
	RandomOff = core.RandomOff
	// RandomFixed is APF#: freeze unstable scalars for one round with a
	// fixed probability.
	RandomFixed = core.RandomFixed
	// RandomGrowing is APF++: probability and length grow with the round
	// number.
	RandomGrowing = core.RandomGrowing
)

// NewManager constructs an APF manager.
func NewManager(cfg ManagerConfig) *Manager { return core.NewManager(cfg) }

// ManagerFactoryFor adapts a ManagerConfig into the engine's per-client
// factory; the flat model dimension is filled in per client.
func ManagerFactoryFor(cfg ManagerConfig) ManagerFactory {
	return func(clientID, dim int) SyncManager {
		c := cfg
		c.Dim = dim
		return core.NewManager(c)
	}
}

// ---- Federated-learning engine ----

type (
	// Engine simulates a federated cluster in-process with exact byte
	// accounting.
	Engine = fl.Engine
	// EngineConfig configures a training run (rounds, Fs, FedProx μ,
	// stragglers, ...).
	EngineConfig = fl.Config
	// Result aggregates a run's metrics.
	Result = fl.Result
	// RoundMetrics records one communication round.
	RoundMetrics = fl.RoundMetrics
	// SyncManager is the pluggable per-client synchronization scheme.
	SyncManager = fl.SyncManager
	// ModelFactory builds one model replica.
	ModelFactory = fl.ModelFactory
	// OptimizerFactory builds a client-local optimizer.
	OptimizerFactory = fl.OptimizerFactory
	// ManagerFactory builds the SyncManager for one client.
	ManagerFactory = fl.ManagerFactory
	// PassthroughManager is the vanilla full-model-sync baseline.
	PassthroughManager = fl.PassthroughManager
)

// NewEngine assembles a federated run; parts[i] lists the training-sample
// indices owned by client i.
func NewEngine(cfg EngineConfig, model ModelFactory, optimizer OptimizerFactory, manager ManagerFactory, train *Dataset, parts [][]int, test *Dataset) *Engine {
	return fl.New(cfg, model, optimizer, manager, train, parts, test)
}

// NewPassthroughManager returns the no-compression baseline manager.
func NewPassthroughManager(bytesPerValue int) *PassthroughManager {
	return fl.NewPassthroughManager(bytesPerValue)
}

// EvaluateModel scores net on ds in batches.
func EvaluateModel(net *Network, ds *Dataset, batch int) (loss, acc float64) {
	return fl.EvaluateModel(net, ds, batch)
}

// ---- Competing compression schemes ----

type (
	// Gaia is the relative-significance sparsification baseline.
	Gaia = compress.Gaia
	// CMFL is the sign-relevance gating baseline.
	CMFL = compress.CMFL
	// PartialSync is the §4.1 strawman that stops syncing stable scalars.
	PartialSync = compress.PartialSync
	// Quantized wraps any SyncManager with fp16 transmission.
	Quantized = compress.Quantized
	// TopK is the magnitude-based sparsification baseline.
	TopK = compress.TopK
	// StochasticQuantized wraps any SyncManager with QSGD-style
	// stochastic uniform quantization.
	StochasticQuantized = compress.StochasticQuantized
	// DPNoise wraps any SyncManager with Gaussian differential-privacy
	// noise on uploads (§9).
	DPNoise = compress.DPNoise
)

// NewGaia constructs the Gaia baseline.
func NewGaia(dim int, threshold float64, decayEvery, bytesPerValue int) *Gaia {
	return compress.NewGaia(dim, threshold, decayEvery, bytesPerValue)
}

// NewCMFL constructs the CMFL baseline.
func NewCMFL(dim int, threshold, decayPerRound float64, bytesPerValue int) *CMFL {
	return compress.NewCMFL(dim, threshold, decayPerRound, bytesPerValue)
}

// NewPartialSync constructs the partial-synchronization strawman.
func NewPartialSync(dim, checkEveryRounds int, threshold, emaAlpha float64, bytesPerValue int) *PartialSync {
	return compress.NewPartialSync(dim, checkEveryRounds, threshold, emaAlpha, bytesPerValue)
}

// NewQuantized wraps inner with fp16 transmission (the paper's APF+Q).
func NewQuantized(inner SyncManager) *Quantized { return compress.NewQuantized(inner) }

// NewTopK constructs the top-k sparsification baseline.
func NewTopK(dim int, fraction float64, bytesPerValue int) *TopK {
	return compress.NewTopK(dim, fraction, bytesPerValue)
}

// NewStochasticQuantized wraps inner with `levels`-level stochastic
// quantization (1 level reproduces TernGrad's {-1,0,1} grid).
func NewStochasticQuantized(inner SyncManager, levels int, clientSeed, sharedSeed int64) *StochasticQuantized {
	return compress.NewStochasticQuantized(inner, levels, clientSeed, sharedSeed)
}

// NewDPNoise wraps inner with Gaussian DP noise of the given sigma.
func NewDPNoise(inner SyncManager, sigma float64, clientSeed int64) *DPNoise {
	return compress.NewDPNoise(inner, sigma, clientSeed)
}

// ---- Neural-network substrate ----

type (
	// Network is a layer stack with a softmax-cross-entropy head.
	Network = nn.Network
	// Layer is one differentiable stage.
	Layer = nn.Layer
	// Param is one learnable tensor with its gradient.
	Param = nn.Param
	// Optimizer updates parameters from gradients.
	Optimizer = opt.Optimizer
	// ResNetConfig selects residual-network depth and width.
	ResNetConfig = models.ResNetConfig
	// NormFactory builds normalization layers for residual blocks.
	NormFactory = nn.NormFactory
	// ManagerState is a serializable APF manager snapshot for
	// checkpoint/restart.
	ManagerState = core.State
)

// RestoreManager reconstructs an APF manager from a snapshot taken with
// Manager.Snapshot and the original configuration.
func RestoreManager(cfg ManagerConfig, s *ManagerState) (*Manager, error) {
	return core.Restore(cfg, s)
}

// Tensor is the dense row-major array type used throughout the library.
type Tensor = tensor.Tensor

// NewNetwork wraps layers with a classification head.
func NewNetwork(layers ...Layer) *Network { return nn.NewNetwork(layers...) }

// Layer constructors for building custom architectures.
var (
	// NewDense builds a fully connected layer.
	NewDense = nn.NewDense
	// NewConv2D builds a 2-D convolution.
	NewConv2D = nn.NewConv2D
	// NewMaxPool2D builds a max-pooling layer.
	NewMaxPool2D = nn.NewMaxPool2D
	// NewAvgPool2D builds a windowed average-pooling layer.
	NewAvgPool2D = nn.NewAvgPool2D
	// NewGlobalAvgPool2D builds a global average pool.
	NewGlobalAvgPool2D = nn.NewGlobalAvgPool2D
	// NewReLU / NewTanh / NewSigmoid build activations.
	NewReLU    = nn.NewReLU
	NewTanh    = nn.NewTanh
	NewSigmoid = nn.NewSigmoid
	// NewFlatten reshapes [N, ...] inputs to [N, rest].
	NewFlatten = nn.NewFlatten
	// NewDropout builds inverted dropout.
	NewDropout = nn.NewDropout
	// NewBatchNorm2D builds channelwise batch normalization.
	NewBatchNorm2D = nn.NewBatchNorm2D
	// NewGroupNorm2D builds group normalization (the FL-friendly choice).
	NewGroupNorm2D = nn.NewGroupNorm2D
	// GroupNormFactory builds a NormFactory for residual blocks.
	GroupNormFactory = nn.GroupNormFactory
	// NewBasicBlockNorm builds a residual block with a chosen norm.
	NewBasicBlockNorm = nn.NewBasicBlockNorm
	// NewBasicBlock builds a ResNet basic residual block.
	NewBasicBlock = nn.NewBasicBlock
	// NewLSTM builds one recurrent layer with BPTT.
	NewLSTM = nn.NewLSTM
	// NewLastStep selects the final time step of a sequence.
	NewLastStep = nn.NewLastStep
)

// Model constructors (see internal/models for details).
var (
	// LeNet5 builds the classic LeNet-5 CNN.
	LeNet5 = models.LeNet5
	// ResNet builds a BasicBlock residual network.
	ResNet = models.ResNet
	// ResNet18Config is the standard ResNet-18 geometry.
	ResNet18Config = models.ResNet18Config
	// ResNet8Config is a CPU-scale residual geometry.
	ResNet8Config = models.ResNet8Config
	// VGG builds a VGG-style plain CNN (Fig. 9's second model family).
	VGG = models.VGG
	// KWSLSTM builds the keyword-spotting LSTM stack.
	KWSLSTM = models.KWSLSTM
	// MLP builds a plain fully connected network.
	MLP = models.MLP
)

// Optimizer constructors.
var (
	// NewSGD builds SGD with momentum and weight decay.
	NewSGD = opt.NewSGD
	// NewAdam builds Adam with weight decay.
	NewAdam = opt.NewAdam
)

// ---- Datasets and non-IID partitioning ----

type (
	// Dataset is an in-memory classification dataset.
	Dataset = data.Dataset
	// ImageConfig parameterizes SynthImages.
	ImageConfig = data.ImageConfig
	// SequenceConfig parameterizes SynthSequences.
	SequenceConfig = data.SequenceConfig
)

// Data generation and partitioning.
var (
	// SynthImages generates a class-conditional image task.
	SynthImages = data.SynthImages
	// SynthSequences generates a keyword-spotting-like sequence task.
	SynthSequences = data.SynthSequences
	// PartitionIID deals samples round-robin.
	PartitionIID = data.PartitionIID
	// PartitionDirichlet splits classes by Dirichlet(α) shares (§7.1).
	PartitionDirichlet = data.PartitionDirichlet
	// PartitionByClass gives each client k distinct classes (§7.3).
	PartitionByClass = data.PartitionByClass
	// LoadIDX / LoadIDXFile / LoadIDXDataset read MNIST-style IDX data.
	LoadIDX        = data.LoadIDX
	LoadIDXFile    = data.LoadIDXFile
	LoadIDXDataset = data.LoadIDXDataset
	// LoadCSV reads a numeric CSV feature table.
	LoadCSV = data.LoadCSV
)

// ---- Effective perturbation (Eq. 1 / Eq. 17) ----

type (
	// EMATracker is the memory-efficient effective-perturbation tracker
	// used by the manager.
	EMATracker = perturb.EMATracker
	// WindowTracker is the exact windowed form for analyses.
	WindowTracker = perturb.WindowTracker
)

// Perturbation tracker constructors.
var (
	// NewEMATracker constructs an EMA tracker over dim scalars.
	NewEMATracker = perturb.NewEMATracker
	// NewWindowTracker constructs a windowed tracker.
	NewWindowTracker = perturb.NewWindowTracker
)

// ---- Real TCP deployment ----

type (
	// Server is the TCP aggregation server.
	Server = transport.Server
	// ServerConfig configures a Server.
	ServerConfig = transport.ServerConfig
	// ClientConfig configures a TCP trainer client.
	ClientConfig = transport.ClientConfig
	// ClientResult summarizes one TCP client run.
	ClientResult = transport.ClientResult
)

// TCP deployment entry points.
var (
	// NewServer binds the aggregation endpoint.
	NewServer = transport.NewServer
	// RunClient connects and trains until the announced rounds finish.
	RunClient = transport.RunClient
)
