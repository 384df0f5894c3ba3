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
	matchCPUInfo(t, AVX2, "avx2")
}

// TestAVX512MatchesCPUInfo is the same check for the AVX-512 probe: Linux
// lists avx512f and avx512dq only when the CPU has them and the kernel saves
// the opmask and ZMM state, and the probe must say yes exactly when both
// are listed.
func TestAVX512MatchesCPUInfo(t *testing.T) {
	matchCPUInfo(t, AVX512, "avx512f", "avx512dq")
}

// matchCPUInfo fails unless probe is true exactly when /proc/cpuinfo lists
// every one of flags, and unless it is false off amd64.
func matchCPUInfo(t *testing.T, probe bool, flags ...string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		if probe {
			t.Fatalf("%v reported on %s", flags, runtime.GOARCH)
		}
		return
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no CPU flags to compare with: %v", err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		key, listed, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(key) != "flags" {
			continue
		}
		fields := strings.Fields(listed)
		all := true
		for _, f := range flags {
			all = all && slices.Contains(fields, f)
		}
		if all != probe {
			t.Errorf("the CPU flags list all of %v: %v, but CPUID and XGETBV say %v", flags, all, probe)
		}
		return
	}
	t.Skip("no flags line in the CPU information")
}
