package nn

import (
	"math"

	"roadtrojan/internal/tensor"
)

// BatchNorm2D normalizes each channel of an NCHW batch to zero mean and unit
// variance, then applies a learnable per-channel affine transform. Running
// statistics are tracked for inference mode.
type BatchNorm2D struct {
	Gamma *Param // [C] scale
	Beta  *Param // [C] shift

	C        int
	Eps      float64
	Momentum float64

	RunningMean *tensor.Tensor
	RunningVar  *tensor.Tensor

	training bool

	// Forward cache.
	lastInput *tensor.Tensor
	lastXHat  *tensor.Tensor
	lastMean  []float64
	lastInvSD []float64
}

var _ Module = (*BatchNorm2D)(nil)
var _ ModeSetter = (*BatchNorm2D)(nil)

// NewBatchNorm2D creates a batch norm over c channels (γ=1, β=0).
func NewBatchNorm2D(name string, c int) *BatchNorm2D {
	return &BatchNorm2D{
		Gamma:       NewParam(name+".gamma", tensor.Ones(c)),
		Beta:        NewParam(name+".beta", tensor.New(c)),
		C:           c,
		Eps:         1e-5,
		Momentum:    0.1,
		RunningMean: tensor.New(c),
		RunningVar:  tensor.Ones(c),
		training:    true,
	}
}

// SetTraining toggles between batch statistics and running statistics.
func (b *BatchNorm2D) SetTraining(training bool) { b.training = training }

// Training reports the current mode (ConvBNLeaky consults it to decide
// whether the fused eval kernel may run).
func (b *BatchNorm2D) Training() bool { return b.training }

// Forward normalizes x per channel. Products feeding an add are wrapped in
// float64(...) here and in Backward so that no GOARCH fuses them into a
// multiply-add: every platform computes the same bits.
func (b *BatchNorm2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	out := tensor.New(n, c, h, w)
	b.lastInput = x
	// The x̂ cache is only consumed by Backward; in inference mode it is
	// recomputed there from lastInput instead, saving a full-tensor
	// allocation and store pass on the serving path.
	if b.training {
		b.lastXHat = tensor.New(n, c, h, w)
	} else {
		b.lastXHat = nil
	}
	b.lastMean = make([]float64, c)
	b.lastInvSD = make([]float64, c)
	plane := h * w
	cnt := float64(n * plane)

	for ch := 0; ch < c; ch++ {
		var mean, variance float64
		if b.training {
			sum := 0.0
			for s := 0; s < n; s++ {
				base := (s*c + ch) * plane
				for i := 0; i < plane; i++ {
					sum += x.Data()[base+i]
				}
			}
			mean = sum / cnt
			sq := 0.0
			for s := 0; s < n; s++ {
				base := (s*c + ch) * plane
				for i := 0; i < plane; i++ {
					d := x.Data()[base+i] - mean
					sq += float64(d * d)
				}
			}
			variance = sq / cnt
			b.RunningMean.Data()[ch] = float64((1-b.Momentum)*b.RunningMean.Data()[ch]) + float64(b.Momentum*mean)
			b.RunningVar.Data()[ch] = float64((1-b.Momentum)*b.RunningVar.Data()[ch]) + float64(b.Momentum*variance)
		} else {
			mean = b.RunningMean.Data()[ch]
			variance = b.RunningVar.Data()[ch]
		}
		invSD := 1 / math.Sqrt(variance+b.Eps)
		b.lastMean[ch] = mean
		b.lastInvSD[ch] = invSD
		g := b.Gamma.Value.Data()[ch]
		bt := b.Beta.Value.Data()[ch]
		for s := 0; s < n; s++ {
			base := (s*c + ch) * plane
			xs := x.Data()[base : base+plane]
			os := out.Data()[base : base+plane]
			if b.training {
				xhs := b.lastXHat.Data()[base : base+plane]
				for i, v := range xs {
					xh := (v - mean) * invSD
					xhs[i] = xh
					os[i] = float64(g*xh) + bt
				}
			} else {
				for i, v := range xs {
					os[i] = float64(g*((v-mean)*invSD)) + bt
				}
			}
		}
	}
	return out
}

// Backward implements the standard batch-norm gradient. In training mode the
// mean/variance dependence on the batch is accounted for; in inference mode
// the running statistics are constants. The per-channel sums Σd and Σd·x̂
// feed the γ/β gradients and the training-mode input gradient; with γ and β
// frozen in inference mode nothing needs them and the pass is skipped,
// leaving dIn = γ·invSD·d.
func (b *BatchNorm2D) Backward(dOut *tensor.Tensor) *tensor.Tensor {
	mustForwarded(b.lastInput, "BatchNorm2D")
	n, c, h, w := dOut.Dim(0), dOut.Dim(1), dOut.Dim(2), dOut.Dim(3)
	plane := h * w
	cnt := float64(n * plane)
	dIn := tensor.New(n, c, h, w)
	needSums := b.training || !b.Gamma.Frozen || !b.Beta.Frozen

	for ch := 0; ch < c; ch++ {
		g := b.Gamma.Value.Data()[ch]
		invSD := b.lastInvSD[ch]
		mean := b.lastMean[ch]
		var sumD, sumDXhat float64
		for s := 0; needSums && s < n; s++ {
			base := (s*c + ch) * plane
			ds := dOut.Data()[base : base+plane]
			if b.lastXHat != nil {
				xhs := b.lastXHat.Data()[base : base+plane]
				for i, d := range ds {
					sumD += d
					sumDXhat += float64(d * xhs[i])
				}
			} else {
				// Inference-mode forward skipped the x̂ cache; rebuild each
				// value from the cached input with the identical expression.
				xs := b.lastInput.Data()[base : base+plane]
				for i, d := range ds {
					sumD += d
					sumDXhat += float64(d * ((xs[i] - mean) * invSD))
				}
			}
		}
		if !b.Beta.Frozen {
			b.Beta.Grad.Data()[ch] += sumD
		}
		if !b.Gamma.Frozen {
			b.Gamma.Grad.Data()[ch] += sumDXhat
		}

		if b.training {
			for s := 0; s < n; s++ {
				base := (s*c + ch) * plane
				ds := dOut.Data()[base : base+plane]
				xhs := b.lastXHat.Data()[base : base+plane]
				dis := dIn.Data()[base : base+plane]
				for i, d := range ds {
					dis[i] = g * invSD / cnt * (float64(cnt*d) - sumD - float64(xhs[i]*sumDXhat))
				}
			}
		} else {
			for s := 0; s < n; s++ {
				base := (s*c + ch) * plane
				ds := dOut.Data()[base : base+plane]
				dis := dIn.Data()[base : base+plane]
				for i, d := range ds {
					dis[i] = g * invSD * d
				}
			}
		}
	}
	return dIn
}

// Params returns γ and β.
func (b *BatchNorm2D) Params() []*Param { return []*Param{b.Gamma, b.Beta} }

// Clone returns a deep copy: parameters, running statistics, and the
// training flag are copied; forward caches are not.
func (b *BatchNorm2D) Clone() *BatchNorm2D {
	return &BatchNorm2D{
		Gamma: b.Gamma.Clone(), Beta: b.Beta.Clone(),
		C: b.C, Eps: b.Eps, Momentum: b.Momentum,
		RunningMean: b.RunningMean.Clone(), RunningVar: b.RunningVar.Clone(),
		training: b.training,
	}
}

// CloneModule implements Cloner.
func (b *BatchNorm2D) CloneModule() Module { return b.Clone() }
