// Package data provides the datasets and non-IID partitioning used by the
// reproduction. The paper trains on CIFAR-10 and the Speech-Commands
// keyword-spotting subset; neither is available offline, so this package
// generates synthetic class-conditional substitutes that preserve the
// properties APF depends on: fast early learning followed by a stationary
// oscillation phase, non-uniform per-parameter convergence, and genuinely
// divergent local optima under non-IID splits (see DESIGN.md).
package data

import (
	"fmt"
	"math"

	"apf/internal/stats"
	"apf/internal/tensor"
)

// Dataset is an in-memory supervised classification dataset. X is a
// [N, ...] tensor whose first dimension indexes samples.
type Dataset struct {
	X       *tensor.Tensor
	Labels  []int
	Classes int
}

// Len returns the number of samples.
func (d *Dataset) Len() int {
	if d.X.Rank() == 0 {
		return 0
	}
	return d.X.Shape[0]
}

// rowSize returns the flat element count of a single sample.
func (d *Dataset) rowSize() int {
	if d.Len() == 0 {
		return 0
	}
	return d.X.Size() / d.Len()
}

// sampleShape returns the shape of one sample (without the batch dim).
func (d *Dataset) sampleShape() []int { return d.X.Shape[1:] }

// Gather copies the samples at indices into a new batch tensor and label
// slice.
func (d *Dataset) Gather(indices []int) (*tensor.Tensor, []int) {
	x := tensor.New(append([]int{len(indices)}, d.sampleShape()...)...)
	labels := make([]int, len(indices))
	d.gatherInto(x, labels, indices)
	return x, labels
}

// gatherInto copies the samples at indices into x, a [len(indices), ...]
// batch, and their labels into labels.
func (d *Dataset) gatherInto(x *tensor.Tensor, labels, indices []int) {
	row := d.rowSize()
	for i, idx := range indices {
		if idx < 0 || idx >= d.Len() {
			panic(fmt.Sprintf("data: sample index %d out of range [0,%d)", idx, d.Len()))
		}
		copy(x.Data[i*row:(i+1)*row], d.X.Data[idx*row:(idx+1)*row])
		labels[i] = d.Labels[idx]
	}
}

// Subset materializes a new dataset containing the samples at indices.
func (d *Dataset) Subset(indices []int) *Dataset {
	x, labels := d.Gather(indices)
	return &Dataset{X: x, Labels: labels, Classes: d.Classes}
}

// ImageConfig parameterizes SynthImages.
type ImageConfig struct {
	Classes  int
	Channels int
	Size     int // square spatial extent
	Samples  int
	NoiseStd float64
	Seed     int64
}

// SynthImages generates a class-conditional image classification task: each
// class has a spatially smooth prototype pattern, and each sample is its
// class prototype plus white noise. Smoothness (via repeated box blurs)
// gives convolutions local structure to exploit; the noise floor keeps
// late-training gradients oscillatory, reproducing the stationary phase of
// the paper's Fig. 1.
func SynthImages(cfg ImageConfig) *Dataset {
	if cfg.Classes <= 1 || cfg.Channels <= 0 || cfg.Size <= 0 || cfg.Samples <= 0 {
		panic(fmt.Sprintf("data: invalid ImageConfig %+v", cfg))
	}
	rng := stats.SplitRNG(cfg.Seed, 0)
	protos := make([]*tensor.Tensor, cfg.Classes)
	for c := range protos {
		p := tensor.Randn(rng, 0, 1, cfg.Channels, cfg.Size, cfg.Size)
		smooth2D(p, cfg.Channels, cfg.Size)
		smooth2D(p, cfg.Channels, cfg.Size)
		normalize(p)
		protos[c] = p
	}

	sampleRNG := stats.SplitRNG(cfg.Seed, 1)
	x := tensor.New(cfg.Samples, cfg.Channels, cfg.Size, cfg.Size)
	labels := make([]int, cfg.Samples)
	row := cfg.Channels * cfg.Size * cfg.Size
	for i := 0; i < cfg.Samples; i++ {
		c := i % cfg.Classes
		labels[i] = c
		dst := x.Data[i*row : (i+1)*row]
		for j, v := range protos[c].Data {
			dst[j] = v + cfg.NoiseStd*sampleRNG.NormFloat64()
		}
	}
	return &Dataset{X: x, Labels: labels, Classes: cfg.Classes}
}

// smooth2D applies one 3×3 box blur per channel plane in place.
func smooth2D(t *tensor.Tensor, channels, size int) {
	tmp := make([]float64, size*size)
	for c := 0; c < channels; c++ {
		plane := t.Data[c*size*size : (c+1)*size*size]
		for y := 0; y < size; y++ {
			for x := 0; x < size; x++ {
				sum, n := 0.0, 0
				for dy := -1; dy <= 1; dy++ {
					for dx := -1; dx <= 1; dx++ {
						yy, xx := y+dy, x+dx
						if yy < 0 || yy >= size || xx < 0 || xx >= size {
							continue
						}
						sum += plane[yy*size+xx]
						n++
					}
				}
				tmp[y*size+x] = sum / float64(n)
			}
		}
		copy(plane, tmp)
	}
}

// normalize scales t to zero mean and unit standard deviation.
func normalize(t *tensor.Tensor) {
	m := t.Mean()
	s := 0.0
	for _, v := range t.Data {
		s += (v - m) * (v - m)
	}
	std := math.Sqrt(s / float64(t.Size()))
	if std == 0 {
		std = 1
	}
	for i := range t.Data {
		t.Data[i] = (t.Data[i] - m) / std
	}
}

// SequenceConfig parameterizes SynthSequences.
type SequenceConfig struct {
	Classes  int
	SeqLen   int
	Features int
	Samples  int
	NoiseStd float64
	Seed     int64
}

// SynthSequences generates a keyword-spotting-like sequence classification
// task: each class has characteristic per-feature frequencies and phases,
// and each sample traces those sinusoids (with a random global phase shift,
// so the recurrent state matters) plus white noise.
func SynthSequences(cfg SequenceConfig) *Dataset {
	if cfg.Classes <= 1 || cfg.SeqLen <= 0 || cfg.Features <= 0 || cfg.Samples <= 0 {
		panic(fmt.Sprintf("data: invalid SequenceConfig %+v", cfg))
	}
	rng := stats.SplitRNG(cfg.Seed, 2)
	freq := make([][]float64, cfg.Classes)
	phase := make([][]float64, cfg.Classes)
	for c := 0; c < cfg.Classes; c++ {
		freq[c] = make([]float64, cfg.Features)
		phase[c] = make([]float64, cfg.Features)
		for f := 0; f < cfg.Features; f++ {
			freq[c][f] = 0.2 + 1.2*rng.Float64()
			phase[c][f] = 2 * math.Pi * rng.Float64()
		}
	}

	sampleRNG := stats.SplitRNG(cfg.Seed, 3)
	x := tensor.New(cfg.Samples, cfg.SeqLen, cfg.Features)
	labels := make([]int, cfg.Samples)
	row := cfg.SeqLen * cfg.Features
	for i := 0; i < cfg.Samples; i++ {
		c := i % cfg.Classes
		labels[i] = c
		shift := 2 * math.Pi * sampleRNG.Float64()
		dst := x.Data[i*row : (i+1)*row]
		for t := 0; t < cfg.SeqLen; t++ {
			for f := 0; f < cfg.Features; f++ {
				v := math.Sin(freq[c][f]*float64(t)+phase[c][f]+shift) +
					cfg.NoiseStd*sampleRNG.NormFloat64()
				dst[t*cfg.Features+f] = v
			}
		}
	}
	return &Dataset{X: x, Labels: labels, Classes: cfg.Classes}
}
