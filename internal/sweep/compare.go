package sweep

import (
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"repro/internal/bitvec"
	"repro/internal/obs"
)

// CoverageReport quantifies a discovery run's sample efficiency against
// an exhaustive atlas: of the cells the sweep proved exploitable, how
// many did the RL agent visit and flag, and how fast — the repository's
// extension of the paper's Table II from "did it converge" to "what
// fraction of the exploitable space did it find".
type CoverageReport struct {
	// Round is the injection round the comparison ran at (episodes from
	// other rounds, if any, are not comparable and are ignored).
	Round int `json:"round"`
	// Episodes is the number of episode events read; LeakyEpisodes how
	// many of them the agent classified leaky.
	Episodes      int `json:"episodes"`
	LeakyEpisodes int `json:"leaky_episodes"`
	// ExploitableCells is the atlas's exploitable cell count at Round;
	// FoundCells how many of those the agent hit with a leaky episode.
	// Coverage is their ratio (0 when the atlas has no exploitable cell).
	ExploitableCells int     `json:"exploitable_cells"`
	FoundCells       int     `json:"found_cells"`
	Coverage         float64 `json:"coverage"`
	// EpisodesToFirstHit is the 1-based index of the first leaky episode
	// matching an exploitable atlas cell (0 = never).
	EpisodesToFirstHit int `json:"episodes_to_first_hit"`
	// OffAtlas counts leaky episodes whose pattern does not map onto any
	// atlas cell — patterns not aligned to the atlas granularity, wider
	// than the atlas order, or using a model outside the atlas. They are
	// the agent exploring space the sweep did not enumerate, not errors.
	OffAtlas int `json:"off_atlas"`
	// Mismatches counts leaky episodes that map onto an atlas cell the
	// sweep classified NOT exploitable: ground-truth disagreements
	// between the sampling path and the exhaustive path. The property
	// test pins this to zero for seed-matched runs.
	Mismatches int `json:"mismatches"`
	// VerifiedModels counts model_verified events (the abstraction
	// pipeline's harvested, verification-passed fault models — the cells
	// the RL pipeline ultimately *reports* exploitable). ModelHits map
	// onto exploitable atlas cells, ModelMismatches onto cells the sweep
	// classified not exploitable, ModelsOffAtlas onto nothing (wider than
	// the atlas order or unaligned).
	VerifiedModels  int `json:"verified_models"`
	ModelHits       int `json:"model_hits"`
	ModelMismatches int `json:"model_mismatches"`
	ModelsOffAtlas  int `json:"models_off_atlas"`
	// ByModel counts found exploitable cells per fault model.
	ByModel map[string]int `json:"by_model,omitempty"`
}

// episodeFields are the event fields the comparator reads, of the
// run_started, episode and model_verified kinds.
type episodeFields struct {
	Round      int     `json:"round"`
	Pattern    string  `json:"pattern"`
	FaultModel string  `json:"fault_model"`
	T          float64 `json:"t"`
	Leaky      bool    `json:"leaky"`
}

// cellKey canonically identifies a cell for lookup.
func cellKey(round int, pos []int, model string) string {
	return fmt.Sprintf("r%d|%v|%s", round, pos, model)
}

// Compare replays a discovery run's JSONL event log against the atlas.
// round selects the injection round to compare at; 0 auto-detects it
// from the log's run_started event. Episode patterns are mapped onto
// atlas cells by their covered positions at the atlas granularity: a
// pattern maps to a cell iff its set bits exactly tile 1 (or, in an
// order-2 atlas, 2) whole positions and the episode's fault model is in
// the atlas.
func Compare(a *Atlas, round int, r io.Reader) (*CoverageReport, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	exploitable := map[string]int{} // cell key → round
	inAtlas := map[string]bool{}
	for _, c := range a.Cells {
		k := cellKey(c.Round, c.Pos, c.Model)
		inAtlas[k] = true
		if c.Exploitable {
			exploitable[k] = c.Round
		}
	}

	rep := &CoverageReport{Round: round, ByModel: map[string]int{}}
	found := map[string]bool{}
	maxOrder := 1
	if a.Order2 {
		maxOrder = 2
	}
	// classify maps an event's pattern+model onto the atlas: -1 off-atlas,
	// 0 in-atlas but not exploitable, 1 exploitable (key returned).
	classify := func(hexPattern, model string) (string, int) {
		pos, ok := patternPositions(hexPattern, a.GranBits, a.Positions)
		if !ok || len(pos) == 0 || len(pos) > maxOrder {
			return "", -1
		}
		k := cellKey(rep.Round, pos, model)
		if !inAtlas[k] {
			return "", -1
		}
		if _, ok := exploitable[k]; !ok {
			return k, 0
		}
		return k, 1
	}

	err := obs.ReadEvents(r, func(_ int, ev obs.Envelope[episodeFields], err error) error {
		if err != nil {
			return nil // foreign lines are skipped, not fatal
		}
		switch ev.Event {
		case obs.EventRunStarted:
			if rep.Round == 0 && ev.Fields.Round > 0 {
				rep.Round = ev.Fields.Round
			}
		case obs.EventModelVerified:
			rep.VerifiedModels++
			switch _, verdict := classify(ev.Fields.Pattern, ev.Fields.FaultModel); verdict {
			case -1:
				rep.ModelsOffAtlas++
			case 0:
				rep.ModelMismatches++
			case 1:
				rep.ModelHits++
			}
		case obs.EventEpisode:
			rep.Episodes++
			if !ev.Fields.Leaky {
				return nil
			}
			rep.LeakyEpisodes++
			k, verdict := classify(ev.Fields.Pattern, ev.Fields.FaultModel)
			switch verdict {
			case -1:
				rep.OffAtlas++
			case 0:
				rep.Mismatches++
			case 1:
				if !found[k] {
					found[k] = true
					rep.ByModel[ev.Fields.FaultModel]++
					if rep.EpisodesToFirstHit == 0 {
						rep.EpisodesToFirstHit = rep.Episodes
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("sweep: reading event log: %w", err)
	}
	if rep.Round == 0 {
		return nil, fmt.Errorf("sweep: no -round given and no run_started event to infer it from")
	}

	for _, cellRound := range exploitable {
		if cellRound == rep.Round {
			rep.ExploitableCells++
		}
	}
	rep.FoundCells = len(found)
	if rep.ExploitableCells > 0 {
		rep.Coverage = float64(rep.FoundCells) / float64(rep.ExploitableCells)
	}
	return rep, nil
}

// patternPositions maps a hex-encoded pattern onto whole positions at
// the given granularity. ok is false when the pattern is not an exact
// tiling of whole positions (some position is partially covered).
func patternPositions(hexPattern string, granBits, positions int) ([]int, bool) {
	raw, err := hex.DecodeString(hexPattern)
	if err != nil || len(raw) == 0 {
		return nil, false
	}
	v := bitvec.FromBytes(raw)
	if v.Len() != granBits*positions {
		return nil, false // pattern from a different state geometry
	}
	full := (1 << granBits) - 1
	var pos []int
	for p := 0; p < positions; p++ {
		g := 0
		for j := 0; j < granBits; j++ {
			if v.Bit(p*granBits + j) {
				g |= 1 << j
			}
		}
		switch g {
		case 0:
		case full:
			pos = append(pos, p)
		default:
			return nil, false
		}
	}
	sort.Ints(pos)
	return pos, true
}
