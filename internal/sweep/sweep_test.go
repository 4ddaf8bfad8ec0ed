package sweep

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"path/filepath"
	"testing"

	_ "repro/internal/ciphers/gift" // register gift64, present80
	"repro/internal/fault"
)

func unmarshal(data []byte, a *Atlas) error { return json.Unmarshal(data, a) }

func hexOf(b []byte) string { return hex.EncodeToString(b) }

func TestEnumerateCanonicalOrder(t *testing.T) {
	cfg := Config{
		Rounds:    []int{2, 1},
		Models:    []fault.Model{fault.XorFlip, fault.StuckAtZero},
		Order2:    true,
		Order2Cap: 3,
	}
	cfg.Rounds = []int{1, 2} // setDefaults normally sorts; enumerate assumes sorted
	cells := enumerate(&cfg, 4)
	// Per (round, model): 4 singles + 3 capped pairs = 7; 2 rounds × 2 models.
	if len(cells) != 2*2*7 {
		t.Fatalf("enumerated %d cells, want 28", len(cells))
	}
	// First block: round 1, xor, singles 0..3 then pairs (0,1),(0,2),(0,3).
	want := [][]int{{0}, {1}, {2}, {3}, {0, 1}, {0, 2}, {0, 3}}
	for i, w := range want {
		c := cells[i]
		if c.Round != 1 || c.Model != fault.XorFlip {
			t.Fatalf("cell %d: round %d model %s", i, c.Round, c.Model)
		}
		if len(c.Pos) != len(w) {
			t.Fatalf("cell %d: pos %v, want %v", i, c.Pos, w)
		}
		for j := range w {
			if c.Pos[j] != w[j] {
				t.Fatalf("cell %d: pos %v, want %v", i, c.Pos, w)
			}
		}
	}
	// Second block switches model before round.
	if c := cells[7]; c.Round != 1 || c.Model != fault.StuckAtZero {
		t.Fatalf("cell 7: round %d model %s, want round 1 stuck-at-0", c.Round, c.Model)
	}
	if c := cells[14]; c.Round != 2 || c.Model != fault.XorFlip {
		t.Fatalf("cell 14: round %d model %s, want round 2 xor", c.Round, c.Model)
	}
}

func sweepConfig() Config {
	return Config{
		Cipher:  "gift64",
		Rounds:  []int{25},
		Samples: 64,
		Models:  []fault.Model{fault.XorFlip, fault.StuckAtZero},
		Seed:    7,
	}
}

// TestSweepDeterministicAcrossWorkersAndPaths is the core atlas
// contract: identical canonical bytes for every worker count and for the
// batch and scalar cipher paths.
func TestSweepDeterministicAcrossWorkersAndPaths(t *testing.T) {
	var ref []byte
	for _, tc := range []struct {
		workers int
		noBatch bool
	}{{1, false}, {4, false}, {1, true}, {4, true}} {
		cfg := sweepConfig()
		cfg.Workers = tc.workers
		cfg.NoBatch = tc.noBatch
		atlas, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("workers=%d noBatch=%v: %v", tc.workers, tc.noBatch, err)
		}
		if err := atlas.Validate(); err != nil {
			t.Fatalf("workers=%d noBatch=%v: invalid atlas: %v", tc.workers, tc.noBatch, err)
		}
		data, err := atlas.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = data
			// 2 models × 16 nibbles at round 25.
			if atlas.Summary.Cells != 32 {
				t.Fatalf("cells = %d, want 32", atlas.Summary.Cells)
			}
			if atlas.Summary.Exploitable == 0 {
				t.Fatal("no exploitable cell at GIFT-64 round 25; sweep oracle is broken")
			}
			continue
		}
		if !bytes.Equal(ref, data) {
			t.Fatalf("workers=%d noBatch=%v: atlas differs from reference", tc.workers, tc.noBatch)
		}
	}
}

// TestSweepInterruptResume cancels a checkpointed sweep mid-run, resumes
// it, and requires the final atlas byte-identical to an uninterrupted
// reference.
func TestSweepInterruptResume(t *testing.T) {
	refAtlas, err := Run(context.Background(), sweepConfig())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refAtlas.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{0, ShardCells, 24} {
		path := filepath.Join(t.TempDir(), "sweep.ck")
		ctx, cancel := context.WithCancel(context.Background())
		cfg := sweepConfig()
		cfg.Workers = 1
		cfg.Checkpoint = path
		cfg.Progress = func(done, total int) {
			if done >= k {
				cancel()
			}
		}
		_, err := Run(ctx, cfg)
		cancel()
		if k > 0 && err == nil {
			t.Fatalf("k=%d: interrupted run finished without error", k)
		}

		cfg = sweepConfig()
		cfg.Workers = 1
		cfg.Checkpoint = path
		atlas, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("k=%d: resume: %v", k, err)
		}
		data, err := atlas.MarshalCanonical()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref, data) {
			t.Fatalf("k=%d: resumed atlas differs from uninterrupted reference", k)
		}
	}
}

// TestSweepChecksConfig exercises the validation errors.
func TestSweepChecksConfig(t *testing.T) {
	for name, mutate := range map[string]func(*Config){
		"unknown cipher": func(c *Config) { c.Cipher = "nope" },
		"bad round":      func(c *Config) { c.Rounds = []int{99} },
		"bad gran":       func(c *Config) { c.GranBits = 7 },
		"bad key":        func(c *Config) { c.Key = []byte{1, 2, 3} },
	} {
		cfg := sweepConfig()
		mutate(&cfg)
		if _, err := Run(context.Background(), cfg); err == nil {
			t.Errorf("%s: Run succeeded", name)
		}
	}
}

func TestAtlasValidateCatchesCorruption(t *testing.T) {
	cfg := sweepConfig()
	cfg.Samples = 32
	cfg.Models = []fault.Model{fault.XorFlip}
	atlas, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := atlas.Validate(); err != nil {
		t.Fatal(err)
	}
	corrupt := func(f func(a *Atlas)) *Atlas {
		var a Atlas
		data, _ := atlas.MarshalCanonical()
		if err := unmarshal(data, &a); err != nil {
			t.Fatal(err)
		}
		f(&a)
		return &a
	}
	cases := map[string]func(a *Atlas){
		"schema":      func(a *Atlas) { a.Schema = "other/v9" },
		"cell count":  func(a *Atlas) { a.Summary.Cells++ },
		"flag flip":   func(a *Atlas) { a.Cells[0].Exploitable = !a.Cells[0].Exploitable },
		"max t":       func(a *Atlas) { a.Summary.MaxT *= 2 },
		"exploitable": func(a *Atlas) { a.Summary.Exploitable++ },
		"position":    func(a *Atlas) { a.Cells[0].Pos = []int{99} },
	}
	for name, f := range cases {
		if err := corrupt(f).Validate(); err == nil {
			t.Errorf("%s corruption passed validation", name)
		}
	}
}

func TestAtlasHeatmapRender(t *testing.T) {
	cfg := sweepConfig()
	cfg.Samples = 32
	atlas, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var text, md bytes.Buffer
	atlas.Heatmap().Render(&text)
	atlas.Heatmap().RenderMarkdown(&md)
	if text.Len() == 0 || md.Len() == 0 {
		t.Fatal("empty heatmap rendering")
	}
	for _, s := range []string{"round", "legend"} {
		if !bytes.Contains(text.Bytes(), []byte(s)) {
			t.Errorf("text heatmap missing %q:\n%s", s, text.String())
		}
	}
}

func TestPatternPositions(t *testing.T) {
	// gift64: 16 nibbles. Positions {3, 7} → bits 12..15, 28..31 →
	// bytes 0xf0 0x00 0xf0 ... little-endian per byte convention.
	pat := patternFor(64, 4, []int{3, 7})
	pos, ok := patternPositions(hexOf(pat.Bytes()), 4, 16)
	if !ok || len(pos) != 2 || pos[0] != 3 || pos[1] != 7 {
		t.Fatalf("positions = %v ok=%v, want [3 7] true", pos, ok)
	}
	// A pattern that half-covers a nibble does not map.
	half := patternFor(64, 4, nil)
	half.Set(12)
	if _, ok := patternPositions(hexOf(half.Bytes()), 4, 16); ok {
		t.Fatal("partial-position pattern mapped onto the atlas")
	}
	// Wrong geometry does not map.
	if _, ok := patternPositions("ff", 4, 16); ok {
		t.Fatal("8-bit pattern mapped onto a 64-bit atlas")
	}
}
