package simd

import (
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestAVX2MatchesCPUInfo checks the probe against the operating system's
// own reading of the CPU: Linux lists avx2 among a processor's flags only
// when the CPU has it and the kernel saves the YMM state, which is what
// CPUID and XGETBV ask. Off amd64 the probe must say no.
func TestAVX2MatchesCPUInfo(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		if AVX2 {
			t.Fatalf("AVX2 reported on %s", runtime.GOARCH)
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to compare with: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		key, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(key) != "flags" {
			continue
		}
		if listed := slices.Contains(strings.Fields(flags), "avx2"); listed != AVX2 {
			t.Errorf("the CPU flags list avx2: %v, but CPUID and XGETBV say %v", listed, AVX2)
		}
		return
	}
	t.Skip("no flags line in the CPU information")
}
