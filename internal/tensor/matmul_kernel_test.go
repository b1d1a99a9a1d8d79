package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Kernel property tests: the dispatching kernel (matMulRowsBlocked, AVX2 on
// amd64 CPUs that have it, the portable scalar kernels otherwise) against
// matMulRowsRef under the parity contract — the same bits for every
// non-NaN element, and NaN exactly where the reference has NaN. NaN
// payloads are not part of the contract: which operand's payload an add of
// two NaNs keeps depends on operand order, which the kernels do not pin.

// specials are the values that stress the zero skip and IEEE edge cases.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -2.2e-310, 1e308, -1e308,
}

// kernelData fills n values: standard normals, ~10% exact zeros, and each
// value replaced by a special with probability pSpecial.
func kernelData(rng *rand.Rand, n int, pSpecial float64) []float64 {
	out := randData(rng, n)
	for i := range out {
		if rng.Float64() < pSpecial {
			out[i] = specials[rng.Intn(len(specials))]
		}
	}
	return out
}

// parityEqual fails unless got matches want under the parity contract.
func parityEqual(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if math.IsNaN(w) || math.IsNaN(g) {
			if math.IsNaN(w) != math.IsNaN(g) {
				t.Fatalf("%s: element %d is %v, reference %v", name, i, g, w)
			}
			continue
		}
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: element %d is %v (%#x), reference %v (%#x)",
				name, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// checkKernel runs matMulRowsBlocked and matMulRowsRef on rows [lo,lo+rows)
// of an m-row product (m leaves rows below lo and above the range) and
// compares every element of dst, so rows outside the range must come out
// untouched.
func checkKernel(t *testing.T, rng *rand.Rand, lo, rows, k, n int, accum bool, pSpecial float64) {
	t.Helper()
	hi := lo + rows
	m := hi + rng.Intn(3)
	a := kernelData(rng, m*k, pSpecial)
	b := kernelData(rng, k*n, pSpecial)
	init := kernelData(rng, m*n, pSpecial)
	got := append([]float64(nil), init...)
	want := append([]float64(nil), init...)
	matMulRowsBlocked(got, a, b, lo, hi, k, n, accum)
	matMulRowsRef(want, a, b, lo, hi, k, n, accum)
	parityEqual(t, fmt.Sprintf("rows [%d,%d) of %d, k=%d n=%d accum=%v special=%v", lo, hi, m, k, n, accum, pSpecial), got, want)
}

func TestMatMulKernelMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	ks := []int{1, 5, mmKC - 1, mmKC, mmKC + 1, 2*mmKC + 3}
	ns := []int{1, 7, 8, 9, 15, 17, 31, 63, 129, 150}
	for rows := 1; rows <= 37; rows++ {
		for _, k := range ks {
			n := ns[rng.Intn(len(ns))]
			lo := 1 + rng.Intn(3)
			for _, accum := range []bool{false, true} {
				for _, p := range []float64{0, 0.02} {
					checkKernel(t, rng, lo, rows, k, n, accum, p)
				}
			}
		}
	}
	// Every n in one k-crossing shape, so each column remainder 1–7 meets
	// each row remainder.
	for n := 1; n <= 40; n++ {
		for rows := 1; rows <= 8; rows++ {
			checkKernel(t, rng, 1, rows, mmKC+9, n, n%2 == 0, 0.01)
		}
	}
	// The shape where the blocked kernel and the reference were seen
	// returning NaNs of different payloads.
	checkKernel(t, rng, 0, 1, 161, 143, false, 0.05)
}

// FuzzMatMulKernel drives the same comparison from fuzzed shapes, values
// and special-value placements. Seed corpus: testdata/fuzz/FuzzMatMulKernel.
func FuzzMatMulKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, lo, rows uint8, k uint16, n uint8, accum bool, seed int64, place []byte) {
		lo4, r, kk, nn := int(lo%4), 1+int(rows%37), 1+int(k%300), 1+int(n%150)
		rng := rand.New(rand.NewSource(seed))
		hi := lo4 + r
		a := kernelData(rng, hi*kk, 0)
		b := kernelData(rng, kk*nn, 0)
		init := kernelData(rng, hi*nn, 0)
		// Each 4-byte group (operand, index hi, index lo, value) plants one
		// special in a, b or the initial dst.
		for i := 0; i+3 < len(place); i += 4 {
			at := int(place[i+1])<<8 | int(place[i+2])
			v := specials[int(place[i+3])%len(specials)]
			switch place[i] % 3 {
			case 0:
				a[at%len(a)] = v
			case 1:
				b[at%len(b)] = v
			default:
				init[at%len(init)] = v
			}
		}
		got := append([]float64(nil), init...)
		want := append([]float64(nil), init...)
		matMulRowsBlocked(got, a, b, lo4, hi, kk, nn, accum)
		matMulRowsRef(want, a, b, lo4, hi, kk, nn, accum)
		parityEqual(t, fmt.Sprintf("rows [%d,%d) k=%d n=%d accum=%v", lo4, hi, kk, nn, accum), got, want)
	})
}
