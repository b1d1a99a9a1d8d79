package nn

import (
	"math/rand"
	"testing"

	"roadtrojan/internal/tensor"
)

// A frozen Backward must return the same input gradient, bit for bit, as
// the unfrozen one while leaving every parameter gradient untouched.
func TestFrozenBackwardMatchesAndLeavesGradsZero(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	bnTrain := NewBatchNorm2D("bn", 4)
	bnEval := NewBatchNorm2D("bn", 4)
	for i := range bnEval.Gamma.Value.Data() {
		bnEval.Gamma.Value.Data()[i] = 0.5 + rng.Float64()
		bnEval.RunningMean.Data()[i] = rng.NormFloat64()
		bnEval.RunningVar.Data()[i] = 0.5 + rng.Float64()
	}
	bnEval.SetTraining(false)
	blockEval := warmBlock(rng, 3, 4, 3, 1, 1)

	cases := []struct {
		name string
		mod  Module
		x    *tensor.Tensor
	}{
		{"conv", NewConv2D(rng, "c", 3, 5, 3, 1, 1, false), tensor.NewRandN(rng, 1, 3, 3, 7, 7)},
		{"conv+bias", NewConv2D(rng, "c", 3, 5, 3, 2, 1, true), tensor.NewRandN(rng, 1, 3, 3, 9, 8)},
		{"linear", NewLinear(rng, "l", 12, 7), tensor.NewRandN(rng, 1, 5, 12)},
		{"bn-train", bnTrain, tensor.NewRandN(rng, 1, 3, 4, 5, 5)},
		{"bn-eval", bnEval, tensor.NewRandN(rng, 1, 3, 4, 5, 5)},
		{"convbnleaky-train", NewConvBNLeaky(rng, "b", 3, 4, 3, 1, 1, 0.1), tensor.NewRandN(rng, 1, 2, 3, 6, 6)},
		{"convbnleaky-eval", blockEval, tensor.NewRandN(rng, 1, 2, 3, 6, 6)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			frozen := MustCloneModule(tc.mod)
			dOut := tensor.NewRandN(rng, 1, tc.mod.Forward(tc.x).Shape()...)
			want := tc.mod.Backward(dOut)

			restore := Freeze(frozen.Params())
			frozen.Forward(tc.x)
			got := frozen.Backward(dOut)
			if got.Len() != want.Len() {
				t.Fatalf("dIn length %d, want %d", got.Len(), want.Len())
			}
			for i, v := range got.Data() {
				if v != want.Data()[i] {
					t.Fatalf("dIn[%d] = %v frozen, %v unfrozen", i, v, want.Data()[i])
				}
			}
			for _, p := range frozen.Params() {
				if !p.Frozen {
					t.Fatalf("%s not frozen", p.Name)
				}
				for _, g := range p.Grad.Data() {
					if g != 0 {
						t.Fatalf("%s: frozen gradient written (%v)", p.Name, g)
					}
				}
			}
			restore()
			for _, p := range frozen.Params() {
				if p.Frozen {
					t.Fatalf("%s still frozen after restore", p.Name)
				}
			}
		})
	}
}

func TestFreezeRestoresPriorMarkers(t *testing.T) {
	a := NewParam("a", tensor.New(2))
	b := NewParam("b", tensor.New(2))
	b.Frozen = true
	restore := Freeze([]*Param{a, b})
	if !a.Frozen || !b.Frozen {
		t.Fatal("Freeze must mark every parameter")
	}
	if !b.Clone().Frozen {
		t.Fatal("Clone must keep the frozen marker")
	}
	restore()
	if a.Frozen || !b.Frozen {
		t.Fatalf("restore: a=%v b=%v, want false true", a.Frozen, b.Frozen)
	}
}
