package explorefault

import (
	"crypto/sha256"
	"fmt"
	"hash"
	"math"
	"runtime"
	"testing"
)

// goldenOracle is the SHA-256 of every oracle result TestOracleGolden
// computes. A change to it means some assessment moved by at least one
// float64 bit.
const goldenOracle = "804f62e37487bb911f5b1bb0dd81d4238732e8046d394d517787f7b32dbc072a"

// TestOracleGolden pins the exact results of the three oracle entry
// points: Assess under both statistics and both order modes, the
// duplication countermeasure's AssessProtected on the batch and scalar
// paths, and two short seeded Discover runs (multi-model and protected).
// The golden atlases pin unprotected Welch cells only; this covers SIFA,
// fixed-order and protected results too.
func TestOracleGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the oracle hash is recorded for amd64 arithmetic, not %s", runtime.GOARCH)
	}
	h := sha256.New()
	for _, name := range Ciphers() {
		info, err := LookupCipher(name)
		if err != nil {
			t.Fatal(err)
		}
		hashAssessments(t, h, info)
		hashProtected(t, h, info)
	}
	hashDiscover(t, h, DiscoverConfig{
		Cipher: "gift64", Round: 25, FaultModels: []FaultModel{XorFlip, StuckAtZero},
		Episodes: 24, NumEnvs: 4, Samples: 128, MaxHarvest: 3, Seed: 3,
	})
	// Eight traces and four-step episodes make the protected run find a
	// (chance) leak, so its rewards depend on exact t values.
	hashDiscover(t, h, DiscoverConfig{
		Cipher: "aes128", Round: 9, Protected: true,
		Episodes: 16, NumEnvs: 4, Samples: 8, EpisodeLen: 4, Seed: 5,
	})
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != goldenOracle {
		t.Errorf("oracle hash %s, want %s", got, goldenOracle)
	}
}

// goldenRound is the injection round the golden assessments use: two
// rounds before the end, so every cipher has an observation window.
func goldenRound(info CipherInfo) int { return info.Rounds - 2 }

// hashAssessments folds Assess over every fault model, oracle and order
// mode, on one bit pattern and one group pattern, into h.
func hashAssessments(t *testing.T, h hash.Hash, info CipherInfo) {
	t.Helper()
	stateBits := 8 * info.BlockBytes
	patterns := map[string]Pattern{
		"bit":   PatternFromBits(stateBits, 3),
		"group": PatternFromGroups(stateBits, info.GroupBits, 1),
	}
	for _, fm := range FaultModels() {
		for _, oracle := range []OracleKind{OracleWelch, OracleSIFA} {
			for _, fixed := range []int{0, 1} {
				for _, pname := range []string{"bit", "group"} {
					a, err := Assess(patterns[pname], AssessConfig{
						Cipher: info.Name, Round: goldenRound(info), Samples: 256,
						FixedOrder: fixed, FaultModel: fm, Oracle: oracle, Seed: 11,
					})
					if err != nil {
						t.Fatalf("%s %s %s fixed=%d %s: %v", info.Name, fm, oracle, fixed, pname, err)
					}
					fmt.Fprintf(h, "assess %s %s %s %d %s: %x %d %s\n", info.Name, fm, oracle, fixed, pname,
						math.Float64bits(a.T), a.Order, a.Point)
				}
			}
		}
	}
}

// hashProtected folds AssessProtected over every fault model, four
// two-branch patterns and both collection paths into h.
func hashProtected(t *testing.T, h hash.Hash, info CipherInfo) {
	t.Helper()
	n := 8 * info.BlockBytes
	group := PatternFromGroups(2*n, info.GroupBits, 1, n/info.GroupBits+1)
	patterns := []struct {
		name    string
		pattern Pattern
	}{
		{"same-bit", PatternFromBits(2*n, 5, n+5)},
		{"one-branch", PatternFromBits(2*n, 5)},
		{"different-bits", PatternFromBits(2*n, 5, n+6)},
		{"same-group", group},
	}
	for _, fm := range FaultModels() {
		for _, p := range patterns {
			for _, noBatch := range []bool{false, true} {
				a, err := AssessProtected(p.pattern, AssessConfig{
					Cipher: info.Name, Round: goldenRound(info), Samples: 256,
					FaultModel: fm, NoBatch: noBatch, Seed: 13,
				})
				if err != nil {
					t.Fatalf("%s %s %s nobatch=%v: %v", info.Name, fm, p.name, noBatch, err)
				}
				fmt.Fprintf(h, "protected %s %s %s %v: %x %d %s\n", info.Name, fm, p.name, noBatch,
					math.Float64bits(a.T), a.Order, a.Point)
			}
		}
	}
}

// hashDiscover folds what a seeded discovery decided into h: the
// converged pattern, its t value and fault model, the training buckets
// and the verified models.
func hashDiscover(t *testing.T, h hash.Hash, cfg DiscoverConfig) {
	t.Helper()
	res, err := Discover(cfg)
	if err != nil {
		t.Fatalf("discover %s: %v", cfg.Cipher, err)
	}
	fmt.Fprintf(h, "discover %s: %v %x %s\n", cfg.Cipher, res.Converged.Bits(),
		math.Float64bits(res.ConvergedT), res.ConvergedModel)
	for _, b := range res.Buckets {
		fmt.Fprintf(h, "bucket %d %d %d %x %d %d %d %d\n", b.StartEpisode, b.EndEpisode, b.LeakyEpisodes,
			math.Float64bits(b.AvgBitsSelected), b.MaxLeakyBits, b.SingleBitModels, b.MultiBitModels, b.DiagonalContained)
	}
	for _, m := range res.Models {
		fmt.Fprintf(h, "model %s %v %s %x\n", m.Class, m.Pattern.Bits(), m.Fault, math.Float64bits(m.T))
	}
}
