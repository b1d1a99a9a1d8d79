package yolo

import (
	"math/rand"
	"runtime"
	"testing"

	"roadtrojan/internal/nn"
	"roadtrojan/internal/tensor"
)

// TestFrozenInputGradientAnyCoreCount: with the detector frozen (the
// attack's victim), the input gradient for a fixed head gradient — and the
// heads themselves — must be the same bits at GOMAXPROCS 1, 2 and 4, at a
// batch that fills the cores (N=4) and ones that make the kernels split a
// sample (N=1, N=3).
func TestFrozenInputGradientAnyCoreCount(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	m := New(rng, DefaultConfig())
	m.Forward(tensor.NewRandN(rng, 0.3, 2, 3, 64, 64).AddScalar(0.5)) // warm BN statistics
	m.SetTraining(false)
	defer nn.Freeze(m.Params())()

	for _, n := range []int{1, 3, 4} {
		x := tensor.NewRandN(rng, 0.3, n, 3, 64, 64).AddScalar(0.5)
		h := m.Forward(x)
		dHeads := Heads{
			Coarse: tensor.NewRandN(rng, 1, h.Coarse.Shape()...),
			Fine:   tensor.NewRandN(rng, 1, h.Fine.Shape()...),
		}
		var want []float64
		var wantCoarse []float64
		for _, procs := range []int{1, 2, 4} {
			prev := runtime.GOMAXPROCS(procs)
			heads := m.Forward(x)
			dx := m.Backward(dHeads)
			runtime.GOMAXPROCS(prev)
			if want == nil {
				want = append([]float64(nil), dx.Data()...)
				wantCoarse = append([]float64(nil), heads.Coarse.Data()...)
				continue
			}
			for i, v := range dx.Data() {
				if v != want[i] {
					t.Fatalf("N=%d GOMAXPROCS=%d: dx[%d] = %v, want %v (GOMAXPROCS=1)", n, procs, i, v, want[i])
				}
			}
			for i, v := range heads.Coarse.Data() {
				if v != wantCoarse[i] {
					t.Fatalf("N=%d GOMAXPROCS=%d: coarse[%d] = %v, want %v", n, procs, i, v, wantCoarse[i])
				}
			}
		}
	}
	for _, p := range m.Params() {
		for _, g := range p.Grad.Data() {
			if g != 0 {
				t.Fatalf("%s: frozen detector accumulated a gradient", p.Name)
			}
		}
	}
}
