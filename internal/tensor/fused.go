package tensor

import "fmt"

// Eval-time fused convolution kernels. A darknet conv block is
// conv → batch-norm → leaky ReLU; run as three modules that is three full
// tensors and five memory passes per block. At inference the batch-norm is
// an affine transform with frozen statistics, so the whole block collapses
// into one convolution pass plus one in-place elementwise pass — no
// intermediate tensors at all. Two variants exist:
//
//   - Conv2DBNLeaky keeps the batch-norm arithmetic verbatim
//     (γ·((v−μ)·invSD)+β, then the rectifier) so its output is bit-identical
//     to the unfused module chain. This is the kernel fused serving uses:
//     fused and unfused replicas stay byte-interchangeable.
//   - Conv2DBiasLeaky fuses a biased convolution with the rectifier (no
//     batch norm).
//
// Both run on Conv2D's skeleton (convForward), with the affine and the
// rectifier as its epilogue: they split across cores the same way and
// steady-state calls allocate only the output tensor.

// Conv2DBNLeaky computes leaky(γ·((conv(x,W)−μ)·invSD)+β) in one pass.
// Input is [N,C,H,W], weight [OC,C,KH,KW]; gamma, beta, mean and invSD are
// per-output-channel slices of length OC (invSD = 1/sqrt(var+eps), computed
// by the caller exactly as the batch-norm layer computes it). The arithmetic
// per element is identical to the unfused conv→BN(eval)→leaky chain, so the
// result is bit-identical to it.
func Conv2DBNLeaky(input, weight *Tensor, gamma, beta, mean, invSD []float64, stride, pad int, slope float64) *Tensor {
	oc := weight.shape[0]
	if len(gamma) != oc || len(beta) != oc || len(mean) != oc || len(invSD) != oc {
		panic(fmt.Sprintf("tensor: Conv2DBNLeaky affine length %d/%d/%d/%d, want %d",
			len(gamma), len(beta), len(mean), len(invSD), oc))
	}
	return convForward(input, weight, stride, pad, func(res []float64, lo, hi, m int) {
		for o := lo; o < hi; o++ {
			g, bt, mn, isd := gamma[o], beta[o], mean[o], invSD[o]
			seg := res[o*m : (o+1)*m]
			for i, v := range seg {
				y := float64(g*((v-mn)*isd)) + bt
				if y > 0 {
					seg[i] = y
				} else {
					seg[i] = slope * y
				}
			}
		}
	})
}

// Conv2DBiasLeaky computes leaky(conv(x,W)+b) in one pass. The bias add and
// rectifier ride the same pass over the output, so the block costs exactly
// one convolution.
func Conv2DBiasLeaky(input, weight, bias *Tensor, stride, pad int, slope float64) *Tensor {
	oc := weight.shape[0]
	if bias.Len() != oc {
		panic(fmt.Sprintf("tensor: Conv2DBiasLeaky bias length %d, want %d", bias.Len(), oc))
	}
	bd := bias.data
	return convForward(input, weight, stride, pad, func(res []float64, lo, hi, m int) {
		for o := lo; o < hi; o++ {
			b := bd[o]
			seg := res[o*m : (o+1)*m]
			for i, v := range seg {
				y := v + b
				if y > 0 {
					seg[i] = y
				} else {
					seg[i] = slope * y
				}
			}
		}
	})
}
