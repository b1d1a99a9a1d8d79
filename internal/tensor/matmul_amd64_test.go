//go:build amd64 && !purego

package tensor

import (
	"os"
	"strings"
	"testing"
)

// TestAVX2KernelSelected cross-checks the hand-written CPUID/XGETBV probe
// against the kernel's own view of the CPU (/proc/cpuinfo lists avx2 only
// when the CPU has it and the OS saves YMM state). A broken probe must fail
// here rather than silently fall back to the scalar kernels.
func TestAVX2KernelSelected(t *testing.T) {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to cross-check the probe: %v", err)
	}
	listed := false
	for _, line := range strings.Split(string(info), "\n") {
		if name, flags, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			listed = strings.Contains(flags+" ", " avx2 ")
			break
		}
	}
	if listed && !useAVX2 {
		t.Fatal("/proc/cpuinfo lists avx2 but the AVX2 matmul kernel is not selected")
	}
	if !listed && useAVX2 {
		t.Fatal("the AVX2 matmul kernel is selected but /proc/cpuinfo does not list avx2")
	}
}
