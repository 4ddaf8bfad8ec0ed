package cpuid

import (
	"bufio"
	"os"
	"slices"
	"strings"
	"testing"
)

// TestProbeMatchesCPUInfo requires the probe to report AVX and AVX2
// exactly when the kernel lists them among the CPU's flags. The kernel
// drops a flag the OS cannot save state for, so the flags answer the same
// question the probe asks. A probe reading the wrong CPUID leaf or
// sub-leaf would otherwise select the Go bodies and pass every other test.
func TestProbeMatchesCPUInfo(t *testing.T) {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	defer f.Close()
	var flags []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(value)
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if flags == nil {
		t.Skip("/proc/cpuinfo lists no flags")
	}
	for _, c := range []struct {
		flag string
		got  bool
	}{{"avx", AVX()}, {"avx2", AVX2()}} {
		if want := slices.Contains(flags, c.flag); c.got != want {
			t.Errorf("probe reports %s = %v, /proc/cpuinfo lists it: %v", c.flag, c.got, want)
		}
	}
}
