//go:build amd64 && !purego

package tensor

// useAVX2 selects the AVX2 register-tile kernel under matMulRowsBlocked. It
// is fixed at start-up from CPUID and XGETBV: the CPU must report AVX2, and
// the OS must save the YMM state across context switches.
var useAVX2 = cpuHasAVX2()

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// mmKernel4x8 is the AVX2 micro-kernel (matmul_amd64.s). For each of
// panels 8-column panels q it adds a[4, kc] @ b-panel q into dst[4, 8q:8q+8],
// one k step at a time in ascending order, skipping a zero a value per row.
// Strides are in elements: ldd and lda between rows of dst and a, ldb
// between k steps of a panel, bps between panels. The kernel does no bounds
// checking; matMulRowsAVX2 checks the extents it addresses.
//
//go:noescape
func mmKernel4x8(dst *float64, ldd int, a *float64, lda int, b *float64, ldb, bps, kc, panels int)

func cpuHasAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	// XCR0 bits 1 (SSE) and 2 (AVX): the OS saves XMM and YMM state.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}

// packArena holds the kernel's pack buffers apart from defaultArena: a
// pack taken inside a conv dispatch must not hold back one of the conv's
// own scratches, or the arena grows extra scratches that each end up
// carrying im2col-sized buffers.
var packArena Arena

// mmNCAVX2 is the column width of one packed b tile in the AVX2 path: a
// [mmKC, mmNCAVX2] tile (128 KiB) stays in L2 while every row quad of the
// range consumes it, and one 8-column panel of it (8 KiB) in L1 per quad.
const mmNCAVX2 = 128

// matMulRowsAVX2 adds a@b into rows [lo,hi) of dst (already zeroed or
// holding the accumulator). Row quads times 8-column groups run on the
// AVX2 kernel over b packed into 8-column panels, one [mmKC, mmNCAVX2]
// tile at a time; the up to three remainder rows and seven remainder
// columns go through the scalar tile loop. Every output element is
// produced by one of the two with its terms added in ascending k, so the
// bits are those of matMulRowsRef.
func matMulRowsAVX2(dst, a, b []float64, lo, hi, k, n int) {
	quadEnd := lo + (hi-lo)&^3
	n8 := n &^ 7
	if n8 == 0 || k == 0 {
		quadEnd = lo
	}
	if quadEnd > lo {
		// The kernel addresses dst rows [lo,quadEnd), a rows [lo,quadEnd)
		// and b rows [0,k) without bounds checks: check their extents here.
		_, _, _ = dst[quadEnd*n-1], a[quadEnd*k-1], b[k*n-1]
		sc := packArena.get()
		pack := sc.Buf(ScratchPack, mmKC*min(n8, mmNCAVX2))
		for p0 := 0; p0 < k; p0 += mmKC {
			kc := min(mmKC, k-p0)
			for j0 := 0; j0 < n8; j0 += mmNCAVX2 {
				width := min(mmNCAVX2, n8-j0)
				packPanels8(pack, b[p0*n+j0:], kc, width, n)
				for i := lo; i < quadEnd; i += 4 {
					mmKernel4x8(&dst[i*n+j0], n, &a[i*k+p0], k, &pack[0], 8, kc*8, kc, width/8)
				}
			}
		}
		packArena.put(sc)
		if n8 < n {
			matMulRowsTiled(dst, a, b, lo, quadEnd, k, n, n8, n)
		}
	}
	if quadEnd < hi {
		matMulRowsTiled(dst, a, b, quadEnd, hi, k, n, 0, n)
	}
}

// packPanels8 lays the [kc, width] tile of b that starts at b[0] (row
// stride n, width a multiple of 8) out as width/8 panels of [kc, 8],
// contiguous in k.
func packPanels8(pack, b []float64, kc, width, n int) {
	for p := 0; p < kc; p++ {
		brow := b[p*n : p*n+width]
		o := p * 8
		for j := 0; j+8 <= width; j += 8 {
			src := brow[j : j+8 : j+8]
			dst := pack[o : o+8 : o+8]
			dst[0], dst[1], dst[2], dst[3] = src[0], src[1], src[2], src[3]
			dst[4], dst[5], dst[6], dst[7] = src[4], src[5], src[6], src[7]
			o += kc * 8
		}
	}
}
