package sweep

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/fault"
)

// logLine fabricates one run-event JSONL line.
func logLine(event string, fields string) string {
	return fmt.Sprintf(`{"ts":"2026-01-01T00:00:00Z","seq":1,"event":%q,"fields":{%s}}`, event, fields)
}

func TestCompareAgainstSyntheticLog(t *testing.T) {
	// GIFT-64 round 22 at this budget has both exploitable and
	// non-exploitable nibbles — the mix the comparator needs.
	cfg := Config{Cipher: "gift64", Rounds: []int{22}, Samples: 64,
		Models: []fault.Model{fault.XorFlip}, Seed: 7}
	atlas, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pick one exploitable and one non-exploitable single cell.
	var hot, cold *Cell
	for i := range atlas.Cells {
		c := &atlas.Cells[i]
		if c.Exploitable && hot == nil {
			hot = c
		}
		if !c.Exploitable && cold == nil {
			cold = c
		}
	}
	if hot == nil || cold == nil {
		t.Fatalf("atlas lacks an exploitable/non-exploitable mix (exploitable=%d/%d); pick another round",
			atlas.Summary.Exploitable, atlas.Summary.Cells)
	}
	patHex := func(c *Cell) string {
		p := patternFor(64, atlas.GranBits, c.Pos)
		return hexOf(p.Bytes())
	}

	log := strings.Join([]string{
		logLine("run_started", `"binary":"explorefault","cipher":"gift64","round":22,"seed":7`),
		// Episode 1: non-leaky — never counts as a hit.
		logLine("episode", fmt.Sprintf(`"episode":1,"pattern":%q,"fault_model":%q,"t":1.0,"leaky":false`, patHex(hot), hot.Model)),
		// Episode 2: leaky on the exploitable cell — first hit.
		logLine("episode", fmt.Sprintf(`"episode":2,"pattern":%q,"fault_model":%q,"t":80.0,"leaky":true`, patHex(hot), hot.Model)),
		// Episode 3: duplicate hit on the same cell — no double count.
		logLine("episode", fmt.Sprintf(`"episode":3,"pattern":%q,"fault_model":%q,"t":80.0,"leaky":true`, patHex(hot), hot.Model)),
		// Episode 4: leaky but off-atlas (unaligned pattern).
		logLine("episode", `"episode":4,"pattern":"0100000000000000","fault_model":"xor","t":80.0,"leaky":true`),
		// Episode 5: leaky on a cell the atlas says is not exploitable.
		logLine("episode", fmt.Sprintf(`"episode":5,"pattern":%q,"fault_model":%q,"t":9.0,"leaky":true`, patHex(cold), cold.Model)),
		// A verified harvested model on the exploitable cell, one on the
		// cold cell, and one too wide for the atlas.
		logLine("model_verified", fmt.Sprintf(`"model":"nibble","pattern":%q,"fault_model":%q,"t":80.0`, patHex(hot), hot.Model)),
		logLine("model_verified", fmt.Sprintf(`"model":"nibble","pattern":%q,"fault_model":%q,"t":9.0`, patHex(cold), cold.Model)),
		logLine("model_verified", `"model":"multi-nibble","pattern":"ffffff0000000000","fault_model":"xor","t":80.0`),
	}, "\n")

	rep, err := Compare(atlas, 0, strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Round != 22 {
		t.Fatalf("auto-detected round %d, want 22", rep.Round)
	}
	if rep.Episodes != 5 || rep.LeakyEpisodes != 4 {
		t.Fatalf("episodes %d leaky %d, want 5/4", rep.Episodes, rep.LeakyEpisodes)
	}
	if rep.FoundCells != 1 {
		t.Fatalf("found %d cells, want 1", rep.FoundCells)
	}
	if rep.EpisodesToFirstHit != 2 {
		t.Fatalf("episodes-to-first-hit %d, want 2", rep.EpisodesToFirstHit)
	}
	if rep.OffAtlas != 1 {
		t.Fatalf("off-atlas %d, want 1", rep.OffAtlas)
	}
	if rep.Mismatches != 1 {
		t.Fatalf("mismatches %d, want 1 (episode 5 hit a non-exploitable cell)", rep.Mismatches)
	}
	if rep.VerifiedModels != 3 || rep.ModelHits != 1 || rep.ModelMismatches != 1 || rep.ModelsOffAtlas != 1 {
		t.Fatalf("model accounting %d/%d/%d/%d, want 3 verified = 1 hit + 1 mismatch + 1 off-atlas",
			rep.VerifiedModels, rep.ModelHits, rep.ModelMismatches, rep.ModelsOffAtlas)
	}
	if rep.ExploitableCells != atlas.Summary.Exploitable {
		t.Fatalf("exploitable cells %d, atlas summary %d", rep.ExploitableCells, atlas.Summary.Exploitable)
	}
	want := 1.0 / float64(rep.ExploitableCells)
	if rep.Coverage != want {
		t.Fatalf("coverage %v, want %v", rep.Coverage, want)
	}
	if rep.ByModel[hot.Model] != 1 {
		t.Fatalf("by-model %v, want 1 hit for %s", rep.ByModel, hot.Model)
	}
}

func TestCompareNeedsARound(t *testing.T) {
	cfg := Config{Cipher: "gift64", Rounds: []int{25}, Samples: 32,
		Models: []fault.Model{fault.XorFlip}, Seed: 7}
	atlas, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compare(atlas, 0, strings.NewReader("")); err == nil {
		t.Fatal("Compare with no round and no run_started succeeded")
	}
	if rep, err := Compare(atlas, 25, strings.NewReader("")); err != nil || rep.Round != 25 {
		t.Fatalf("explicit round: %v %+v", err, rep)
	}
}

// TestCompareSkipsDamagedLines: a torn line between two leaky episodes
// is skipped and both episodes count, and only the compared round's
// exploitable cells of a two-round atlas make up the denominator.
func TestCompareSkipsDamagedLines(t *testing.T) {
	cfg := Config{Cipher: "gift64", Rounds: []int{22, 25}, Samples: 64,
		Models: []fault.Model{fault.XorFlip}, Seed: 7}
	atlas, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	var hot *Cell
	at22 := 0
	for i := range atlas.Cells {
		if c := &atlas.Cells[i]; c.Round == 22 && c.Exploitable {
			at22++
			if hot == nil {
				hot = c
			}
		}
	}
	if hot == nil || at22 == atlas.Summary.Exploitable {
		t.Fatalf("want exploitable cells in both rounds: %d of %d in round 22", at22, atlas.Summary.Exploitable)
	}
	p := patternFor(64, atlas.GranBits, hot.Pos)
	pat := hexOf(p.Bytes())
	log := strings.Join([]string{
		logLine("run_started", `"round":22`),
		logLine("episode", fmt.Sprintf(`"episode":1,"pattern":%q,"fault_model":%q,"leaky":true`, pat, hot.Model)),
		`{"ts":"2026-01-01T00:00:00Z","seq":2,"event":"epis`,
		logLine("episode", fmt.Sprintf(`"episode":2,"pattern":%q,"fault_model":%q,"leaky":true`, pat, hot.Model)),
	}, "\n")
	rep, err := Compare(atlas, 0, strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Episodes != 2 || rep.LeakyEpisodes != 2 || rep.FoundCells != 1 {
		t.Errorf("episodes %d, leaky %d, found %d; want 2, 2, 1", rep.Episodes, rep.LeakyEpisodes, rep.FoundCells)
	}
	if rep.ExploitableCells != at22 {
		t.Errorf("exploitable cells %d, want round 22's %d", rep.ExploitableCells, at22)
	}
}
