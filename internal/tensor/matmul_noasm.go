//go:build !amd64 || purego

package tensor

// Without the amd64 assembly (another GOARCH, or the purego tag) the
// portable scalar kernels in matmul.go are the only path.
const useAVX2 = false

func matMulRowsAVX2(dst, a, b []float64, lo, hi, k, n int) {
	panic("tensor: AVX2 matmul kernel not built")
}
