package expfault

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
	"repro/internal/ciphers/aes"
	_ "repro/internal/ciphers/all"
	"repro/internal/ciphers/gift"
	"repro/internal/fault"
	"repro/internal/prng"
)

// goldenExpFault is the SHA-256 of TestExpFaultGolden's results: every
// KeyRecoveryResult field of the GIFT-64 and GIFT-128 attacks (four fault
// models, the fork kernel and the scalar reference path, the default and
// the last fault round), two Piret–Quisquater runs, and every float64 bit
// of ProfileModel on each registered cipher for the same models at rounds
// 1, R-3, R-1 and R. After each call the hash also takes the next output
// of the call's PRNG, which pins how many draws the call consumed: a
// phase that skipped or added draws would shift every later phase's
// plaintexts and faults even where the summary result does not change.
// The comparisons between the kernel and the scalar path check two paths
// of one build against each other; this hash pins what both of them
// compute. It holds for amd64, where Go never fuses a multiply and an
// add.
const goldenExpFault = "008c6f02c2e57994716ea80267793652ba15b0803aaa4f0ff9f3e0090d1b71d6"

// goldenModels are the fault models the golden covers: the XOR-only
// path, a deterministic AND lane, a random AND lane, and a random value.
var goldenModels = []fault.Model{fault.XorFlip, fault.StuckAtZero, fault.BiasedAnd, fault.RandomNibble}

// hashResult hashes a recovery result and the next output of the rng the
// attack drew from.
func hashResult(h hash.Hash, r *KeyRecoveryResult, rng *prng.Source) {
	fmt.Fprintf(h, "%d %d %d %016x %t %q %x\n", r.RecoveredBits, r.TotalKeyBits, r.FaultsUsed,
		math.Float64bits(r.OfflineLog2), r.Correct, r.Notes, rng.Uint64())
}

func hashFloatBits(h hash.Hash, vals []float64) {
	var buf [8]byte
	for _, v := range vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
}

func TestExpFaultGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the result hash is recorded for amd64 arithmetic, not %s", runtime.GOARCH)
	}
	h := sha256.New()
	keys := prng.New(61)

	// The pair and template counts leave partial 64-trace blocks, one of
	// them shorter than the kernels' bitslicing threshold.
	key := make([]byte, 16)
	keys.Fill(key)
	g64, err := gift.New(gift.GIFT64, key)
	if err != nil {
		t.Fatal(err)
	}
	keys.Fill(key)
	g128, err := gift.New(gift.GIFT128, key)
	if err != nil {
		t.Fatal(err)
	}
	p64, p128 := nibblePattern(8, 9, 10, 11, 12, 14), nibblePattern128(5, 6, 20)
	for _, model := range goldenModels {
		for _, noBatch := range []bool{false, true} {
			for _, round := range []int{0, 28} {
				cfg := GIFTDFAConfig{FaultRound: round, Pairs: 197, TemplateSamples: 1000, Model: model, NoBatch: noBatch}
				rng := prng.New(uint64(round) + 3)
				res, err := GIFTDFA(g64, &p64, cfg, rng)
				if err != nil {
					t.Fatalf("gift64 %v round %d: %v", model, round, err)
				}
				hashResult(h, res, rng)
			}
			for _, round := range []int{0, 40} {
				cfg := GIFTDFAConfig{FaultRound: round, Pairs: 197, TemplateSamples: 1000, Model: model, NoBatch: noBatch}
				rng := prng.New(uint64(round) + 5)
				res, err := GIFTDFA(g128, &p128, cfg, rng)
				if err != nil {
					t.Fatalf("gift128 %v round %d: %v", model, round, err)
				}
				hashResult(h, res, rng)
			}
		}
	}

	for i := 0; i < 2; i++ {
		keys.Fill(key)
		c, err := aes.New(key)
		if err != nil {
			t.Fatal(err)
		}
		rng := prng.New(uint64(i) + 7)
		res, err := AESPiretQuisquater(c, 3, rng)
		if err != nil {
			t.Fatal(err)
		}
		hashResult(h, res, rng)
	}

	for _, name := range ciphers.Names() {
		info, err := ciphers.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		key := make([]byte, info.KeyBytes)
		keys.Fill(key)
		c, err := info.New(key)
		if err != nil {
			t.Fatal(err)
		}
		gb, R := c.GroupBits(), c.Rounds()
		pattern := bitvec.New(8 * c.BlockBytes())
		for b := gb; b < 2*gb; b++ {
			pattern.Set(b)
		}
		pattern.Set(3*gb + 1)
		for _, model := range goldenModels {
			for _, round := range []int{1, R - 3, R - 1, R} {
				rng := prng.New(uint64(round))
				prof, err := ProfileModel(c, &pattern, model, round, 300, rng)
				if err != nil {
					t.Fatalf("%s %v round %d: %v", name, model, round, err)
				}
				hashFloatBits(h, prof.ActiveGroups)
				hashFloatBits(h, prof.Entropy)
				hashFloatBits(h, prof.MaxAbsCorr)
				fmt.Fprintf(h, "%d %d %x\n", prof.DistinguisherRound, prof.GroupBits, rng.Uint64())
			}
		}
	}

	if got := hex.EncodeToString(h.Sum(nil)); got != goldenExpFault {
		t.Errorf("expfault result hash %s, want %s", got, goldenExpFault)
	}
}
