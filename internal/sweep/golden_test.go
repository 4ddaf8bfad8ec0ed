package sweep

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	_ "repro/internal/ciphers/aes"        // register aes128
	_ "repro/internal/ciphers/simonspeck" // register speck64
	"repro/internal/fault"
)

// goldenConfigs are the checked-in reference atlases: reduced-round
// sweeps at low trace budgets, one per cipher family with a batch
// kernel. Regenerate with
//
//	ATLAS_GOLDEN_UPDATE=1 go test ./internal/sweep -run TestGoldenAtlas
//
// after an intentional change to the atlas format or the campaign
// pipeline; any unintentional byte difference is a determinism
// regression.
var goldenConfigs = map[string]Config{
	"aes128-r8.atlas.json": {
		Cipher:  "aes128",
		Rounds:  []int{8},
		Samples: 128,
		Seed:    7,
	},
	"gift64-r25.atlas.json": {
		Cipher:  "gift64",
		Rounds:  []int{25},
		Samples: 128,
		Models:  []fault.Model{fault.XorFlip, fault.StuckAtZero},
		Seed:    7,
	},
	"present80-r28.atlas.json": {
		Cipher:  "present80",
		Rounds:  []int{28},
		Samples: 128,
		Models:  []fault.Model{fault.XorFlip, fault.StuckAtZero},
		Seed:    7,
	},
	"speck64-r24.atlas.json": {
		Cipher:  "speck64",
		Rounds:  []int{24},
		Samples: 128,
		Seed:    7,
	},
}

func TestGoldenAtlas(t *testing.T) {
	update := os.Getenv("ATLAS_GOLDEN_UPDATE") != ""
	for name, base := range goldenConfigs {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join("testdata", name)
			var ref []byte
			// Regeneration must be byte-identical across worker counts and
			// the batch/scalar cipher paths — the golden file pins all four.
			for _, tc := range []struct {
				workers int
				noBatch bool
			}{{1, false}, {4, false}, {1, true}, {4, true}} {
				cfg := base
				cfg.Workers = tc.workers
				cfg.NoBatch = tc.noBatch
				atlas, err := Run(context.Background(), cfg)
				if err != nil {
					t.Fatalf("workers=%d noBatch=%v: %v", tc.workers, tc.noBatch, err)
				}
				data, err := atlas.MarshalCanonical()
				if err != nil {
					t.Fatal(err)
				}
				if ref == nil {
					ref = data
				} else if !bytes.Equal(ref, data) {
					t.Fatalf("workers=%d noBatch=%v: atlas differs from workers=1 batch run", tc.workers, tc.noBatch)
				}
			}
			if update {
				if err := os.WriteFile(path, ref, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, len(ref))
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with ATLAS_GOLDEN_UPDATE=1 to create)", err)
			}
			if !bytes.Equal(ref, want) {
				t.Errorf("regenerated atlas differs from golden %s: determinism or format regression (regen with ATLAS_GOLDEN_UPDATE=1 only if intentional)", path)
			}
			// The checked-in document must itself validate.
			if _, err := ReadFile(path); err != nil {
				t.Errorf("golden atlas fails validation: %v", err)
			}
		})
	}
}
