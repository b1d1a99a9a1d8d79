package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// Split parity: when a batch does not fill the cores evenly, convForward
// and conv2DBackwardInput cut each sample into row (or input-channel)
// blocks. Every output element must still come out bit-identical to the
// reference kernels, at every core count and batch size, including blocks
// short enough to change which matmul kernel runs.

// splitCases are shapes large enough that splitBlocks actually cuts them,
// plus the 1×1 and stride-2 convolutions the detector uses.
func splitCases() []convCase {
	return []convCase{
		{c: 8, h: 16, w: 16, oc: 20, kh: 3, kw: 3, stride: 1, pad: 1, bias: true},
		// 2·packMinRows−1 output rows: at two blocks one half falls below
		// packMinRows and takes the small-row kernel, the other packs.
		{c: 6, h: 12, w: 12, oc: 2*packMinRows - 1, kh: 3, kw: 3, stride: 1, pad: 1, bias: false},
		// Few rows, wide k·m: every block is below packMinRows.
		{c: 3, h: 32, w: 32, oc: 8, kh: 3, kw: 3, stride: 1, pad: 1, bias: true},
		// 1×1 conv (the neck/lateral/head shape).
		{c: 64, h: 8, w: 8, oc: 30, kh: 1, kw: 1, stride: 1, pad: 0, bias: true},
		// Stride 2 with an odd input.
		{c: 8, h: 33, w: 31, oc: 16, kh: 3, kw: 3, stride: 2, pad: 1, bias: false},
		// Narrow output (OH·OW ≤ narrowMaxN): the deep-layer kernel.
		{c: 48, h: 4, w: 4, oc: 40, kh: 3, kw: 3, stride: 1, pad: 1, bias: true},
	}
}

// forEachSplitConfig runs f at GOMAXPROCS 1–4 and batch sizes {1,2,3,5,7}.
func forEachSplitConfig(t *testing.T, f func(t *testing.T, cc convCase)) {
	t.Helper()
	for procs := 1; procs <= 4; procs++ {
		prev := runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, 2, 3, 5, 7} {
			for _, cc := range splitCases() {
				cc.n = n
				t.Run(fmt.Sprintf("p%d/%s", procs, cc), func(t *testing.T) { f(t, cc) })
			}
		}
		runtime.GOMAXPROCS(prev)
	}
}

func TestSplitBlocksRule(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	big := splitMinWork // one block's minimum work per row
	for _, tc := range []struct{ n, rows, rowWork, want int }{
		{1, 64, big, 4},  // one sample: every core
		{2, 64, big, 2},  // gcd 2
		{3, 64, big, 4},  // gcd 1
		{4, 64, big, 1},  // fills the cores evenly
		{6, 64, big, 2},  // gcd 2
		{8, 64, big, 1},  // two samples per core
		{1, 3, big, 3},   // capped by the row count
		{1, 64, 64, 1},   // capped by the minimum work: 64·64 < splitMinWork
		{1, 64, 1024, 2}, // 64·1024 = 2·splitMinWork
	} {
		if got := splitBlocks(tc.n, tc.rows, tc.rowWork); got != tc.want {
			t.Errorf("splitBlocks(n=%d, rows=%d, rowWork=%d) = %d, want %d", tc.n, tc.rows, tc.rowWork, got, tc.want)
		}
	}
	runtime.GOMAXPROCS(1)
	if got := splitBlocks(1, 64, big); got != 1 {
		t.Errorf("one core: splitBlocks = %d, want 1", got)
	}
}

func TestSplitTaskCoversRows(t *testing.T) {
	for rows := 1; rows <= 40; rows++ {
		for blocks := 1; blocks <= rows; blocks++ {
			next := 0
			for t2 := 0; t2 < 2*blocks; t2++ {
				s, lo, hi := splitTask(t2, blocks, rows)
				if s != t2/blocks || lo != next%rows || hi <= lo {
					t.Fatalf("rows %d blocks %d task %d: sample %d range [%d,%d)", rows, blocks, t2, s, lo, hi)
				}
				next = hi
			}
			if next != rows {
				t.Fatalf("rows %d blocks %d: last block ends at %d", rows, blocks, next)
			}
		}
	}
}

// TestSplitTileTaskAligned: the forward's row blocks cover the rows in
// order, are non-empty, and start on 4-row kernel tiles.
func TestSplitTileTaskAligned(t *testing.T) {
	for rows := 1; rows <= 40; rows++ {
		for blocks := 1; blocks <= (rows+3)/4; blocks++ {
			next := 0
			for j := 0; j < blocks; j++ {
				s, lo, hi := splitTileTask(j, blocks, rows)
				if s != 0 || lo != next || hi <= lo || lo%4 != 0 {
					t.Fatalf("rows %d blocks %d task %d: sample %d range [%d,%d)", rows, blocks, j, s, lo, hi)
				}
				next = hi
			}
			if next != rows {
				t.Fatalf("rows %d blocks %d: last block ends at %d", rows, blocks, next)
			}
		}
	}
}

func TestSplitConv2DParityBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	forEachSplitConfig(t, func(t *testing.T, cc convCase) {
		in, wt, bias := convInputs(rng, cc)
		bitEqual(t, "conv", Conv2D(in, wt, bias, cc.stride, cc.pad).Data(),
			conv2DRef(in, wt, bias, cc.stride, cc.pad).Data())
	})
}

func TestSplitConv2DBNLeakyParityBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	const slope = 0.1
	forEachSplitConfig(t, func(t *testing.T, cc convCase) {
		in, wt, _ := convInputs(rng, cc)
		gamma, beta := randData(rng, cc.oc), randData(rng, cc.oc)
		mean, invSD := randData(rng, cc.oc), make([]float64, cc.oc)
		for i := range invSD {
			invSD[i] = 0.5 + rng.Float64()
		}
		got := Conv2DBNLeaky(in, wt, gamma, beta, mean, invSD, cc.stride, cc.pad, slope)
		want := conv2DRef(in, wt, nil, cc.stride, cc.pad)
		m := want.Len() / (cc.n * cc.oc)
		for i, v := range want.data {
			o := i / m % cc.oc
			y := gamma[o]*((v-mean[o])*invSD[o]) + beta[o]
			if y <= 0 {
				y = slope * y
			}
			want.data[i] = y
		}
		bitEqual(t, "conv+bn+leaky", got.Data(), want.Data())
	})
}

func TestSplitConv2DBiasLeakyParityBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	const slope = 0.1
	forEachSplitConfig(t, func(t *testing.T, cc convCase) {
		cc.bias = true
		in, wt, bias := convInputs(rng, cc)
		got := Conv2DBiasLeaky(in, wt, bias, cc.stride, cc.pad, slope)
		want := conv2DRef(in, wt, bias, cc.stride, cc.pad)
		for i, y := range want.data {
			if y <= 0 {
				want.data[i] = slope * y
			}
		}
		bitEqual(t, "conv+bias+leaky", got.Data(), want.Data())
	})
}

func TestSplitConv2DBackwardInputParityBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	forEachSplitConfig(t, func(t *testing.T, cc convCase) {
		in, wt, _ := convInputs(rng, cc)
		oh := ConvOut(cc.h, cc.kh, cc.stride, cc.pad)
		ow := ConvOut(cc.w, cc.kw, cc.stride, cc.pad)
		dOut := FromSlice(randData(rng, cc.n*cc.oc*oh*ow), cc.n, cc.oc, oh, ow)
		bitEqual(t, "conv backward dIn", Conv2DBackward(in, wt, dOut, cc.stride, cc.pad, nil, nil).Data(),
			conv2DBackwardRef(in, wt, dOut, cc.stride, cc.pad, nil, nil).Data())
	})
}

// TestSplitCasesActuallySplit guards the suite's coverage: at two cores a
// single sample of every split case must be cut into blocks on both the
// forward (output rows) and the frozen backward (input channels).
func TestSplitCasesActuallySplit(t *testing.T) {
	prev := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(prev)
	for _, cc := range splitCases() {
		m := ConvOut(cc.h, cc.kh, cc.stride, cc.pad) * ConvOut(cc.w, cc.kw, cc.stride, cc.pad)
		if b := splitBlocks(1, cc.oc, cc.c*cc.kh*cc.kw*m); b != 2 {
			t.Errorf("%s: forward blocks %d, want 2", cc, b)
		}
		if b := splitBlocks(1, cc.c, cc.kh*cc.kw*cc.oc*m); b != 2 {
			t.Errorf("%s: backward groups %d, want 2", cc, b)
		}
	}
}
