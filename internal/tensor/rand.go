package tensor

import "math/rand"

// RandN fills t with samples from N(mean, std²) drawn from rng and returns t.
func (t *Tensor) RandN(rng *rand.Rand, mean, std float64) *Tensor {
	for i := range t.data {
		t.data[i] = float64(rng.NormFloat64()*std) + mean
	}
	return t
}

// RandU fills t with uniform samples from [lo, hi) drawn from rng.
func (t *Tensor) RandU(rng *rand.Rand, lo, hi float64) *Tensor {
	span := hi - lo
	for i := range t.data {
		t.data[i] = lo + float64(rng.Float64()*span)
	}
	return t
}

// NewRandN returns a fresh tensor with the given shape filled from N(0, std²).
func NewRandN(rng *rand.Rand, std float64, shape ...int) *Tensor {
	return New(shape...).RandN(rng, 0, std)
}

// NewRandU returns a fresh tensor filled uniformly from [lo, hi).
func NewRandU(rng *rand.Rand, lo, hi float64, shape ...int) *Tensor {
	return New(shape...).RandU(rng, lo, hi)
}
