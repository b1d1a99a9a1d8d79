package tensor

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// ConvOut returns the spatial output size of a convolution or pooling with
// the given input size, kernel, stride and symmetric zero padding.
func ConvOut(in, kernel, stride, pad int) int {
	return (in+2*pad-kernel)/stride + 1
}

// Im2Col lowers one [C,H,W] image (given as a flat slice) into a column
// matrix of shape [C*KH*KW, OH*OW] so convolution becomes a MatMul. Out must
// have exactly that many elements.
func Im2Col(img []float64, c, h, w, kh, kw, stride, pad int, out []float64) {
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	cols := oh * ow
	if len(out) != c*kh*kw*cols {
		panic(fmt.Sprintf("tensor: Im2Col out length %d, want %d", len(out), c*kh*kw*cols))
	}
	row := 0
	for ch := 0; ch < c; ch++ {
		chImg := img[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				dst := out[row*cols : (row+1)*cols]
				// Valid ox range for this kx: 0 <= ox*stride+off < w. Hoisting
				// it out of the inner loop turns the body into a straight copy
				// (stride 1) or an unconditional strided gather — no
				// per-element boundary test.
				off := kx - pad
				lo, hi := 0, ow
				if off < 0 {
					lo = (-off + stride - 1) / stride
					if lo > ow {
						lo = ow
					}
				}
				if e := (w - off + stride - 1) / stride; e < hi {
					hi = e
				}
				if hi < lo {
					hi = lo
				}
				i := 0
				for oy := 0; oy < oh; oy++ {
					sy := oy*stride - pad + ky
					if sy < 0 || sy >= h {
						zeroFill(dst[i : i+ow])
						i += ow
						continue
					}
					srow := chImg[sy*w : (sy+1)*w]
					zeroFill(dst[i : i+lo])
					if stride == 1 {
						copy(dst[i+lo:i+hi], srow[lo+off:hi+off])
					} else {
						for ox := lo; ox < hi; ox++ {
							dst[i+ox] = srow[ox*stride+off]
						}
					}
					zeroFill(dst[i+hi : i+ow])
					i += ow
				}
				row++
			}
		}
	}
}

// zeroFill clears s; the compiler lowers this loop to memclr.
func zeroFill(s []float64) {
	for i := range s {
		s[i] = 0
	}
}

// Col2Im scatters a column matrix (the gradient of Im2Col's output) back
// into a [C,H,W] image gradient, accumulating where patches overlapped.
func Col2Im(cols []float64, c, h, w, kh, kw, stride, pad int, img []float64) {
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	n := oh * ow
	if len(img) != c*h*w {
		panic(fmt.Sprintf("tensor: Col2Im img length %d, want %d", len(img), c*h*w))
	}
	row := 0
	for ch := 0; ch < c; ch++ {
		chImg := img[ch*h*w : (ch+1)*h*w]
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				src := cols[row*n : (row+1)*n]
				i := 0
				for oy := 0; oy < oh; oy++ {
					sy := oy*stride - pad + ky
					if sy < 0 || sy >= h {
						i += ow
						continue
					}
					srow := chImg[sy*w : (sy+1)*w]
					for ox := 0; ox < ow; ox++ {
						sx := ox*stride - pad + kx
						if sx >= 0 && sx < w {
							srow[sx] += src[i]
						}
						i++
					}
				}
				row++
			}
		}
	}
}

// Conv2D computes a batched 2-D cross-correlation. Input is [N,C,H,W],
// weight is [OC,C,KH,KW], bias (optional, may be nil) is [OC]. The result is
// [N,OC,OH,OW]. See convForward for how the work is spread across cores;
// im2col scratch comes from the arena, so steady-state calls allocate only
// the output tensor.
func Conv2D(input, weight, bias *Tensor, stride, pad int) *Tensor {
	if refKernels {
		return conv2DRef(input, weight, bias, stride, pad)
	}
	if bias == nil {
		return convForward(input, weight, stride, pad, nil)
	}
	bd := bias.data
	return convForward(input, weight, stride, pad, func(res []float64, lo, hi, m int) {
		for o := lo; o < hi; o++ {
			b := bd[o]
			seg := res[o*m : (o+1)*m]
			for i := range seg {
				seg[i] += b
			}
		}
	})
}

// convEpilogue finishes output rows [lo,hi) of one sample's [OC, OH·OW]
// result segment in place while they are still cache-hot.
type convEpilogue func(res []float64, lo, hi, m int)

// convForward is the one convolution skeleton behind Conv2D and the fused
// kernels: im2col, then the blocked matmul W[OC,K] @ cols[K,OH·OW] and the
// optional epilogue on each output row. When the batch fills the cores
// evenly every sample is one task. Otherwise each sample's output rows
// (output channels) are cut into splitBlocks blocks of whole 4-row kernel
// tiles (splitTileTask), after a first pass that lowers every sample's
// im2col with the work cut by input channel. Every output element is still
// summed by one task in ascending k order, so the result is bit-identical
// at any core count.
func convForward(input, weight *Tensor, stride, pad int, epilogue convEpilogue) *Tensor {
	n, c, h, w := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	oc, kc, kh, kw := weight.shape[0], weight.shape[1], weight.shape[2], weight.shape[3]
	if kc != c {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch input %v weight %v", input.shape, weight.shape))
	}
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	out := New(n, oc, oh, ow)
	if n == 0 {
		return out
	}
	k := c * kh * kw
	m := oh * ow
	wdata := weight.data // already [oc, k] row-major
	finish := func(s int, cols []float64, lo, hi int) {
		res := out.data[s*oc*m : (s+1)*oc*m]
		matMulRowsBlocked(res, wdata, cols, lo, hi, k, m, false)
		if epilogue != nil {
			epilogue(res, lo, hi, m)
		}
	}

	blocks := splitBlocks(n, (oc+3)/4, 4*k*m)
	if blocks == 1 {
		workers := Workers(n)
		ss := AcquireScratch(workers)
		parallelForSlot(n, workers, func(slot, s int) {
			cols := ss[slot].Buf(ScratchCols, k*m)
			Im2Col(input.data[s*c*h*w:(s+1)*c*h*w], c, h, w, kh, kw, stride, pad, cols)
			finish(s, cols, 0, oc)
		})
		ReleaseScratch(ss)
		return out
	}

	// Split path: one im2col buffer per sample, sized before the dispatch
	// (Buf may reallocate and must not race).
	ss := AcquireScratch(n)
	cols := make([][]float64, n)
	for s := range cols {
		cols[s] = ss[s].Buf(ScratchCols, k*m)
	}
	groups := min(blocks, c)
	khw := kh * kw
	parallelFor(n*groups, func(t int) {
		s, c0, c1 := splitTask(t, groups, c)
		Im2Col(input.data[(s*c+c0)*h*w:(s*c+c1)*h*w], c1-c0, h, w, kh, kw, stride, pad,
			cols[s][c0*khw*m:c1*khw*m])
	})
	parallelFor(n*blocks, func(t int) {
		s, lo, hi := splitTileTask(t, blocks, oc)
		finish(s, cols[s], lo, hi)
	})
	ReleaseScratch(ss)
	return out
}

// splitMinWork is the fewest multiply-adds one block of a split sample may
// carry; below it the extra dispatch costs more than the idle core saves.
const splitMinWork = 1 << 15

// splitBlocks returns how many blocks each sample's rows are cut into when
// n samples run on GOMAXPROCS cores. A batch that fills the cores evenly
// stays one task per sample (1). Otherwise GOMAXPROCS/gcd(n, GOMAXPROCS)
// blocks per sample make the task count a multiple of the core count,
// capped so that every block keeps at least one row and splitMinWork
// multiply-adds (rowWork per row). The answer depends only on n, the shape
// and GOMAXPROCS.
func splitBlocks(n, rows, rowWork int) int {
	p := runtime.GOMAXPROCS(0)
	a, b := n, p
	for b != 0 {
		a, b = b, a%b
	}
	blocks := min(p/a, rows, rows*rowWork/splitMinWork)
	return max(blocks, 1)
}

// splitTileTask is splitTask over the rows' whole 4-row kernel tiles
// (blocks ≤ (rows+3)/4): every block starts on a multiple of 4, so only a
// sample's last block can end in the matmul kernel's scalar row remainder.
func splitTileTask(t, blocks, rows int) (s, lo, hi int) {
	s, q0, q1 := splitTask(t, blocks, (rows+3)/4)
	return s, 4 * q0, min(4*q1, rows)
}

// splitTask maps task t of a split dispatch to its sample and its half-open
// block [lo,hi) of the sample's rows: blocks per sample, rows cut into
// near-equal non-empty ranges (blocks ≤ rows).
func splitTask(t, blocks, rows int) (s, lo, hi int) {
	s, j := t/blocks, t%blocks
	return s, j * rows / blocks, (j + 1) * rows / blocks
}

// Conv2DBackward computes the gradients of Conv2D. Given dOut [N,OC,OH,OW]
// it returns dInput [N,C,H,W] and accumulates into dWeight [OC,C,KH,KW] and
// dBias [OC] (either may be nil to skip).
//
// dInput is summed per element in one fixed order, so it is bit-identical
// at any core count. With both gradients nil (a frozen layer) only dInput
// is computed, by conv2DBackwardInput.
//
// The dWeight/dBias reduction is lock-free and deterministic for a fixed
// GOMAXPROCS: samples are assigned to workers in fixed contiguous chunks,
// each worker sums its samples' dW/dB terms into private arena accumulators
// in ascending sample order, and the per-worker partials are merged into
// dWeight/dBias in ascending slot order after the join. The chunk
// boundaries follow the worker count, so these sums are the same bits on
// every run at one GOMAXPROCS but not across GOMAXPROCS values (with one
// worker they match the sequential pre-optimization kernel bit for bit).
func Conv2DBackward(input, weight, dOut *Tensor, stride, pad int, dWeight, dBias *Tensor) *Tensor {
	if refKernels {
		return conv2DBackwardRef(input, weight, dOut, stride, pad, dWeight, dBias)
	}
	if dWeight == nil && dBias == nil {
		return conv2DBackwardInput(input, weight, dOut, stride, pad)
	}
	n, c, h, w := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	oc, _, kh, kw := weight.shape[0], weight.shape[1], weight.shape[2], weight.shape[3]
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	dIn := New(n, c, h, w)
	if n == 0 {
		return dIn
	}
	k := c * kh * kw
	m := oh * ow
	needW := dWeight != nil
	needB := dBias != nil

	workers := Workers(n)
	ss := AcquireScratch(workers)

	// W^T [k, oc], written once here and read by every worker.
	wT := ss[0].Buf(ScratchWT, k*oc)
	transposeInto(wT, weight.data, oc, k)

	// With a single worker the partial-sum indirection is pointless:
	// accumulate straight into the caller's gradients, which reproduces the
	// sequential pre-optimization summation order exactly.
	single := workers == 1
	parallelForChunks(n, workers, func(slot, lo, hi int) {
		sc := ss[slot]
		var dwAcc, dbAcc []float64
		if needW {
			if single {
				dwAcc = dWeight.data
			} else {
				dwAcc = sc.BufZero(ScratchDW, oc*k)
			}
		}
		if needB {
			if single {
				dbAcc = dBias.data
			} else {
				dbAcc = sc.BufZero(ScratchDB, oc)
			}
		}
		for s := lo; s < hi; s++ {
			dOutS := dOut.data[s*oc*m : (s+1)*oc*m]
			if needW {
				// dW_s = dOut_s [oc,m] @ cols^T [m,k]; im2col is only
				// needed for the weight gradient. The NT dot kernel reads
				// cols row-major directly — no materialized transpose.
				cols := sc.Buf(ScratchCols, k*m)
				Im2Col(input.data[s*c*h*w:(s+1)*c*h*w], c, h, w, kh, kw, stride, pad, cols)
				dws := sc.Buf(ScratchDWS, oc*k)
				dotRowsNT(dws, dOutS, cols, oc, k, m)
				for i, v := range dws {
					dwAcc[i] += v
				}
			}
			if needB {
				for o := 0; o < oc; o++ {
					sum := 0.0
					row := dOutS[o*m : (o+1)*m]
					for _, v := range row {
						sum += v
					}
					dbAcc[o] += sum
				}
			}
			// dCols = W^T [k,oc] @ dOut_s [oc,m]
			dCols := sc.Buf(ScratchDCols, k*m)
			matMulRowsBlocked(dCols, wT, dOutS, 0, k, oc, m, false)
			Col2Im(dCols, c, h, w, kh, kw, stride, pad, dIn.data[s*c*h*w:(s+1)*c*h*w])
		}
	})

	// Fixed-order merge: ascending slot, each slot's partial covering an
	// ascending contiguous sample range.
	if !single {
		for slot := 0; slot < workers; slot++ {
			if lo, hi := chunkRange(n, workers, slot); lo >= hi {
				continue
			}
			sc := ss[slot]
			if needW {
				for i, v := range sc.Buf(ScratchDW, oc*k) {
					dWeight.data[i] += v
				}
			}
			if needB {
				for o, v := range sc.Buf(ScratchDB, oc) {
					dBias.data[o] += v
				}
			}
		}
	}
	ReleaseScratch(ss)
	return dIn
}

// conv2DBackwardInput is the frozen-layer backward: dInput only, with no
// im2col and no weight-gradient kernel. Each task computes the dCols rows
// of one group of input channels (W^T rows in multiples of KH·KW) and
// scatters them with Col2Im into that disjoint channel range of dInput, so
// a sample splits across cores exactly like convForward splits its output
// rows.
func conv2DBackwardInput(input, weight, dOut *Tensor, stride, pad int) *Tensor {
	n, c, h, w := input.shape[0], input.shape[1], input.shape[2], input.shape[3]
	oc, _, kh, kw := weight.shape[0], weight.shape[1], weight.shape[2], weight.shape[3]
	oh := ConvOut(h, kh, stride, pad)
	ow := ConvOut(w, kw, stride, pad)
	dIn := New(n, c, h, w)
	if n == 0 {
		return dIn
	}
	khw := kh * kw
	k := c * khw
	m := oh * ow

	groups := splitBlocks(n, c, khw*oc*m)
	workers := Workers(n * groups)
	ss := AcquireScratch(workers)
	// W^T [k, oc], written once here and read by every worker.
	wT := ss[0].Buf(ScratchWT, k*oc)
	transposeInto(wT, weight.data, oc, k)
	parallelForSlot(n*groups, workers, func(slot, t int) {
		s, c0, c1 := splitTask(t, groups, c)
		rows := (c1 - c0) * khw
		// dCols rows of channels [c0,c1) = W^T rows [c0·khw, c1·khw) @ dOut_s.
		dCols := ss[slot].Buf(ScratchDCols, rows*m)
		matMulRowsBlocked(dCols, wT[c0*khw*oc:c1*khw*oc], dOut.data[s*oc*m:(s+1)*oc*m], 0, rows, oc, m, false)
		Col2Im(dCols, c1-c0, h, w, kh, kw, stride, pad, dIn.data[(s*c+c0)*h*w:(s*c+c1)*h*w])
	})
	ReleaseScratch(ss)
	return dIn
}

// transposeInto writes the [cols, rows] transpose of the row-major
// [rows, cols] matrix src into dst. The walk is tiled so that both the
// sequential reads and the strided writes of a tile stay within cache —
// a straight row scan writes rows*8 bytes apart and misses on every store
// once rows exceeds a few hundred.
func transposeInto(dst, src []float64, rows, cols int) {
	if len(dst) != rows*cols {
		panic(fmt.Sprintf("tensor: transposeInto dst length %d, want %d", len(dst), rows*cols))
	}
	const tile = 32
	for r0 := 0; r0 < rows; r0 += tile {
		r1 := r0 + tile
		if r1 > rows {
			r1 = rows
		}
		for c0 := 0; c0 < cols; c0 += tile {
			c1 := c0 + tile
			if c1 > cols {
				c1 = cols
			}
			for r := r0; r < r1; r++ {
				srow := src[r*cols+c0 : r*cols+c1]
				for i, v := range srow {
					dst[(c0+i)*rows+r] = v
				}
			}
		}
	}
}

// Workers returns the worker count the parallel loops in this package use
// for n items: GOMAXPROCS capped at n, at least 1. Callers acquiring
// per-worker arena scratch size it with this.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// chunkRange returns the half-open sample range of the given worker slot
// under the fixed contiguous partition parallelForChunks uses. Depends only
// on (n, workers, slot), never on scheduling.
func chunkRange(n, workers, slot int) (lo, hi int) {
	chunk := (n + workers - 1) / workers
	lo = slot * chunk
	hi = lo + chunk
	if hi > n {
		hi = n
	}
	if lo > n {
		lo = n
	}
	return lo, hi
}

// parallelFor runs f(i) for i in [0,n) across GOMAXPROCS goroutines. Work
// is handed out through a single atomic counter: one fetch-add per item
// instead of the channel send/recv pair the old feeder-goroutine queue paid
// (which dominated dispatch for small batches).
func parallelFor(n int, f func(i int)) {
	parallelForSlot(n, Workers(n), func(_, i int) { f(i) })
}

func parallelForSlot(n, workers int, f func(slot, i int)) {
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(0, i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(slot int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(slot, i)
			}
		}(w)
	}
	wg.Wait()
}

// parallelForChunks partitions [0,n) into one fixed contiguous chunk per
// worker slot (chunkRange) and runs f(slot, lo, hi) concurrently. Unlike
// the counter-based loop, the item→slot assignment is static, which makes
// per-slot reductions merged in slot order deterministic for a fixed
// worker count.
func parallelForChunks(n, workers int, f func(slot, lo, hi int)) {
	if workers <= 1 {
		f(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := chunkRange(n, workers, w)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(slot, lo, hi int) {
			defer wg.Done()
			f(slot, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// ParallelFor exposes the worker-pool loop for other packages that iterate
// over batch samples.
func ParallelFor(n int, f func(i int)) { parallelFor(n, f) }

// ParallelForSlot runs f(slot, i) for i in [0,n) with slot identifying the
// executing worker in [0, Workers(n)). Exactly one goroutine uses a given
// slot at a time, so slot may index per-worker state such as arena
// scratches acquired with AcquireScratch(Workers(n)).
func ParallelForSlot(n int, f func(slot, i int)) { parallelForSlot(n, Workers(n), f) }
