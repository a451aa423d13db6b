// Package preset provides named, seed-deterministic workload presets
// shared by the distributed binaries (cmd/apf-server, cmd/apf-relay,
// cmd/apf-client): every side of a deployment regenerates identical
// synthetic data, model geometry, and APF configuration from (name, seed),
// so only those two values need to agree.
package preset

import (
	"fmt"
	"math/rand"

	"apf/internal/core"
	"apf/internal/data"
	"apf/internal/fl"
	"apf/internal/models"
	"apf/internal/nn"
	"apf/internal/opt"
)

// Preset bundles the factories of one named workload.
type Preset struct {
	Name      string
	Model     fl.ModelFactory
	Optimizer fl.OptimizerFactory
	Data      *data.Dataset
	Batch     int
}

// Names lists the available presets.
func Names() []string { return []string{"lenet", "lstm", "mlp"} }

// Load builds the preset identified by name, generating its dataset from
// seed.
func Load(name string, seed int64) (Preset, error) {
	switch name {
	case "lenet":
		return Preset{
			Name: name,
			Data: data.SynthImages(data.ImageConfig{
				Classes: 10, Channels: 1, Size: 16, Samples: 600, NoiseStd: 0.8, Seed: seed,
			}),
			Model:     func(rng *rand.Rand) *nn.Network { return models.LeNet5(rng, 1, 16, 10) },
			Optimizer: func(p []*nn.Param) opt.Optimizer { return opt.NewAdam(p, 0.002, 0) },
			Batch:     20,
		}, nil
	case "lstm":
		return Preset{
			Name: name,
			Data: data.SynthSequences(data.SequenceConfig{
				Classes: 10, SeqLen: 10, Features: 8, Samples: 500, NoiseStd: 0.4, Seed: seed,
			}),
			Model:     func(rng *rand.Rand) *nn.Network { return models.KWSLSTM(rng, 8, 16, 2, 10) },
			Optimizer: func(p []*nn.Param) opt.Optimizer { return opt.NewSGD(p, 0.2, 0, 0) },
			Batch:     20,
		}, nil
	case "mlp":
		return Preset{
			Name: name,
			Data: data.SynthImages(data.ImageConfig{
				Classes: 6, Channels: 1, Size: 10, Samples: 360, NoiseStd: 0.7, Seed: seed,
			}),
			Model: func(rng *rand.Rand) *nn.Network {
				return nn.NewNetwork(
					nn.NewFlatten(),
					nn.NewDense(rng, "fc1", 100, 32),
					nn.NewTanh(),
					nn.NewDense(rng, "fc2", 32, 6),
				)
			},
			Optimizer: func(p []*nn.Param) opt.Optimizer { return opt.NewSGD(p, 0.3, 0, 0) },
			Batch:     16,
		}, nil
	default:
		return Preset{}, fmt.Errorf("preset: unknown workload %q (available: %v)", name, Names())
	}
}

// InitVector returns the canonical initial flat model for (preset, seed),
// fl.InitVector's: the server distributes it, so every deployment starts
// where the simulator starts at the same seed.
func (p Preset) InitVector(seed int64) []float64 {
	return fl.InitVector(p.Model, seed)
}

// APFConfig is the APF manager configuration of a deployment: every
// apf-client -scheme apf manager, and the -shadow replica apf-server and
// apf-relay keep of them. The replica is only sound when its config
// equals the clients' bit for bit, so every side builds it here. Dim is
// left zero (the manager's own dimension, or the run's for the shadow);
// callers may attach an Observer.
func APFConfig(seed int64) core.Config {
	return core.Config{CheckEveryRounds: 2, Threshold: 0.1, EMAAlpha: 0.85, Seed: seed}
}
