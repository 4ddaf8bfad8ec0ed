package ciphers_test

import (
	"slices"
	"testing"

	"repro/internal/ciphers"
)

// TestRegistryMatchesInstances checks every registration against the
// cipher it builds. Job validation and discovery read Info without
// building a cipher, so Info has to describe the instance exactly.
func TestRegistryMatchesInstances(t *testing.T) {
	want := []string{"aes128", "gift128", "gift64", "present80", "simon32", "simon64", "speck32", "speck64"}
	if got := ciphers.Names(); !slices.Equal(got, want) {
		t.Fatalf("registered ciphers = %v, want %v", got, want)
	}
	for _, name := range want {
		info, err := ciphers.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := info.New(make([]byte, info.KeyBytes))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Name() != info.Name || c.BlockBytes() != info.BlockBytes || c.Rounds() != info.Rounds || c.GroupBits() != info.GroupBits {
			t.Errorf("%s: instance (%s, %d block bytes, %d rounds, %d group bits) differs from registration %+v",
				name, c.Name(), c.BlockBytes(), c.Rounds(), c.GroupBits(), info)
		}
		for _, n := range []int{info.KeyBytes - 1, info.KeyBytes + 1} {
			if _, err := info.New(make([]byte, n)); err == nil {
				t.Errorf("%s accepted a %d-byte key", name, n)
			}
		}
	}
}
