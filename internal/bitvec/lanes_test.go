package bitvec

import (
	"math/rand"
	"testing"

	"repro/internal/cpuid"
)

// transposeBodies returns Transpose64's bodies by name: the Go body
// always, the assembly body where the CPU runs it.
func transposeBodies() map[string]func(*[64]uint64) {
	bodies := map[string]func(*[64]uint64){"go": transpose64Go}
	if transposeAsm != nil {
		bodies["avx2"] = transposeAsm
	}
	return bodies
}

// TestTranspose64Bodies checks every body of Transpose64 bit for bit
// against the definition, bit k of word i becoming bit i of word k, and
// checks that a second transpose gives the input back. The inputs are
// all 4,096 one-hot matrices, which pin where each bit goes, the all-zero
// and all-ones matrices, and random matrices, which catch a bit that
// leaks into another. Where the CPU has AVX2 the assembly body must be
// the one selected.
func TestTranspose64Bodies(t *testing.T) {
	if cpuid.AVX2() != (transposeAsm != nil) {
		t.Errorf("CPU has AVX2: %v, assembly body selected: %v", cpuid.AVX2(), transposeAsm != nil)
	}
	var inputs [][64]uint64
	for i := 0; i < 64; i++ {
		for k := 0; k < 64; k++ {
			var a [64]uint64
			a[i] = 1 << uint(k)
			inputs = append(inputs, a)
		}
	}
	var ones [64]uint64
	for i := range ones {
		ones[i] = ^uint64(0)
	}
	inputs = append(inputs, [64]uint64{}, ones)
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 500; n++ {
		var a [64]uint64
		for i := range a {
			a[i] = rng.Uint64()
		}
		inputs = append(inputs, a)
	}
	for name, body := range transposeBodies() {
		for _, orig := range inputs {
			a := orig
			body(&a)
			for i := 0; i < 64; i++ {
				for k := 0; k < 64; k++ {
					if a[k]>>uint(i)&1 != orig[i]>>uint(k)&1 {
						t.Fatalf("%s: bit %d of word %d did not become bit %d of word %d (input %x)", name, k, i, i, k, orig)
					}
				}
			}
			body(&a)
			if a != orig {
				t.Fatalf("%s: transposing twice changed %x into %x", name, orig, a)
			}
		}
	}
}

// BenchmarkTranspose64 times one transpose under each body.
func BenchmarkTranspose64(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var a [64]uint64
	for i := range a {
		a[i] = rng.Uint64()
	}
	for _, name := range []string{"go", "avx2"} {
		b.Run(name, func(b *testing.B) {
			body := transposeBodies()[name]
			if body == nil {
				b.Skip("no such body on this CPU")
			}
			for i := 0; i < b.N; i++ {
				body(&a)
			}
		})
	}
}

func TestRippleAddMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, width := range []int{16, 32} {
		// 64 independent additions per call, sliced across lanes.
		as := make([]uint64, 64)
		bs := make([]uint64, 64)
		for tr := range as {
			as[tr] = rng.Uint64() & (1<<uint(width) - 1)
			bs[tr] = rng.Uint64() & (1<<uint(width) - 1)
		}
		// Carry-heavy operands in a few traces.
		as[0], bs[0] = 1<<uint(width)-1, 1
		as[1], bs[1] = 1<<uint(width)-1, 1<<uint(width)-1
		as[2], bs[2] = 0, 0
		laneA := make([]uint64, width)
		laneB := make([]uint64, width)
		for i := 0; i < width; i++ {
			for tr := 0; tr < 64; tr++ {
				laneA[i] |= (as[tr] >> uint(i) & 1) << uint(tr)
				laneB[i] |= (bs[tr] >> uint(i) & 1) << uint(tr)
			}
		}
		sum := make([]uint64, width)
		RippleAdd(sum, laneA, laneB)
		for tr := 0; tr < 64; tr++ {
			want := (as[tr] + bs[tr]) & (1<<uint(width) - 1)
			var got uint64
			for i := 0; i < width; i++ {
				got |= (sum[i] >> uint(tr) & 1) << uint(i)
			}
			if got != want {
				t.Fatalf("width %d trace %d: %#x + %#x = %#x, want %#x", width, tr, as[tr], bs[tr], got, want)
			}
		}
		// In-place: dst aliasing a must give the same result.
		aliased := append([]uint64(nil), laneA...)
		RippleAdd(aliased, aliased, laneB)
		for i := range sum {
			if aliased[i] != sum[i] {
				t.Fatalf("width %d: aliased RippleAdd diverges at lane %d", width, i)
			}
		}
	}
}
