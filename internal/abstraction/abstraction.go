// Package abstraction implements §III-F of the paper: turning the raw
// multi-bit fault patterns found by the RL agent into practical fault
// models. Patterns are widened to the nibble/byte boundaries defined by
// the cipher's round structure, re-verified offline with the t-test,
// classified (bit / nibble / byte / multi-nibble / multi-byte / diagonal),
// extended to their structural siblings (e.g. the other three AES
// diagonals), and deduplicated.
package abstraction

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/bitvec"
	"repro/internal/fault"
)

// Verifier re-checks abstracted models offline. explore.Oracle satisfies
// this interface; the indirection keeps the dependency arrow pointing
// here.
type Verifier interface {
	Evaluate(ctx context.Context, pattern *bitvec.Vector) (float64, error)
	Threshold() float64
	StateBits() int
}

// Class is the abstract category of a fault model.
type Class int

const (
	// BitModel is a single-bit fault.
	BitModel Class = iota
	// NibbleModel is a fault within one 4-bit S-box word.
	NibbleModel
	// MultiNibbleModel spans several nibbles.
	MultiNibbleModel
	// ByteModel is a fault within one byte.
	ByteModel
	// MultiByteModel spans several bytes.
	MultiByteModel
	// DiagonalModel is an AES multi-byte fault confined to one diagonal
	// (the model of Saha et al. [4]).
	DiagonalModel
	// RawPattern is an exploitable bit pattern whose widened version did
	// not verify, reported as-is (§III-F: "Otherwise, we report the
	// specific multi-bit pattern observed by RL").
	RawPattern
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case BitModel:
		return "bit"
	case NibbleModel:
		return "nibble"
	case MultiNibbleModel:
		return "multi-nibble"
	case ByteModel:
		return "byte"
	case MultiByteModel:
		return "multi-byte"
	case DiagonalModel:
		return "diagonal"
	case RawPattern:
		return "raw-pattern"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Model is an abstracted, verified fault model.
type Model struct {
	// Class is the category; Groups the nibble or byte indices covered
	// (GroupBits gives the granularity; empty for RawPattern).
	Class     Class
	Groups    []int
	GroupBits int
	// Fault is the typed injection model (bit-flip, stuck-at, ...) the
	// pattern was discovered and verified under. The abstraction pipeline
	// itself never reads it — the Verifier binds one injection model per
	// harvest — but it is part of the model's identity: the same byte
	// pattern under stuck-at-0 and under bit-flip are different attacks.
	Fault fault.Model
	// Pattern is the full bit pattern of the model (all bits of all
	// covered groups, or the raw RL pattern for RawPattern).
	Pattern bitvec.Vector
	// T is the offline verification statistic; Verified whether it
	// exceeded the threshold.
	T        float64
	Verified bool
}

// Key returns a canonical identity string for deduplication.
func (m Model) Key() string {
	return fmt.Sprintf("%d/%d/%d/%s", m.Fault, m.Class, m.GroupBits, m.Pattern.String())
}

// String renders a human-readable description, e.g. "byte{5}" or
// "diagonal{2,7,8,13}"; non-bit-flip injection models carry a prefix,
// e.g. "stuck-at-0:byte{5}".
func (m Model) String() string {
	prefix := ""
	if m.Fault != fault.XorFlip {
		prefix = m.Fault.String() + ":"
	}
	if m.Class == RawPattern {
		return prefix + "raw" + m.Pattern.String()
	}
	parts := make([]string, len(m.Groups))
	for i, g := range m.Groups {
		parts[i] = fmt.Sprintf("%d", g)
	}
	return fmt.Sprintf("%s%s{%s}", prefix, m.Class, strings.Join(parts, ","))
}

// Widen maps a bit pattern to the full pattern of the groups it touches
// and returns the group indices. groupBits is 4 for nibble ciphers, 8 for
// byte ciphers.
func Widen(pattern *bitvec.Vector, groupBits int) (groups []int, widened bitvec.Vector) {
	groups = pattern.Groups(groupBits)
	widened = bitvec.New(pattern.Len())
	for _, g := range groups {
		for j := 0; j < groupBits; j++ {
			widened.Set(g*groupBits + j)
		}
	}
	return groups, widened
}

// aesDiagonalOf returns the diagonal index of AES state byte b.
func aesDiagonalOf(b int) int { return ((b%4-b/4)%4 + 4) % 4 }

// classify determines the model class of a widened pattern. isAES enables
// diagonal detection (AES is the only byte-oriented cipher with the
// ShiftRows diagonal structure).
func classify(groups []int, groupBits int, isAES bool) Class {
	switch {
	case groupBits == 4 && len(groups) == 1:
		return NibbleModel
	case groupBits == 4:
		return MultiNibbleModel
	case len(groups) == 1:
		return ByteModel
	default:
		if isAES {
			d := aesDiagonalOf(groups[0])
			same := true
			for _, g := range groups[1:] {
				if aesDiagonalOf(g) != d {
					same = false
					break
				}
			}
			if same {
				return DiagonalModel
			}
		}
		return MultiByteModel
	}
}

// AbstractAll widens a raw RL pattern and returns every verified model it
// implies: the widened whole-pattern model when it verifies, otherwise
// (per §III-F, "we see most proper subsets of the final multi-bit fault
// pattern as exploitable") the verified sub-models — each touched group
// on its own, each AES-diagonal-restricted sub-pattern — plus the raw
// pattern itself when only that verifies.
func AbstractAll(ctx context.Context, v Verifier, pattern *bitvec.Vector, groupBits int, isAES bool) ([]Model, error) {
	m, err := Abstract(ctx, v, pattern, groupBits, isAES)
	if err != nil {
		return nil, err
	}
	groups, _ := Widen(pattern, groupBits)
	if m.Verified && m.Class != RawPattern {
		out := []Model{m}
		// "All the subsets of that fault model are classified as fault
		// models as well" (§III-B): for small widenings, also verify the
		// individual groups, which yields the single-nibble/byte rows of
		// Table III from multi-group discoveries.
		if len(groups) > 1 && len(groups) <= 4 {
			subs, err := perGroupModels(ctx, v, pattern.Len(), groups, groupBits, isAES)
			if err != nil {
				return nil, err
			}
			out = append(out, subs...)
		}
		return out, nil
	}
	var out []Model
	if m.Verified {
		out = append(out, m) // the raw pattern leaks even though the widening does not
	}
	// Per-group sub-models.
	subs, err := perGroupModels(ctx, v, pattern.Len(), groups, groupBits, isAES)
	if err != nil {
		return nil, err
	}
	out = append(out, subs...)
	// AES diagonal-restricted sub-patterns: the widened bytes of each
	// diagonal, tested as one model, diagonals in index order so the
	// model list is the same on every call.
	if isAES && groupBits == 8 {
		var byDiag [4][]int
		for _, g := range groups {
			d := aesDiagonalOf(g)
			byDiag[d] = append(byDiag[d], g)
		}
		for _, dg := range byDiag {
			if len(dg) < 2 {
				continue
			}
			sub := bitvec.New(pattern.Len())
			for _, g := range dg {
				for j := 0; j < groupBits; j++ {
					sub.Set(g*groupBits + j)
				}
			}
			t, err := v.Evaluate(ctx, &sub)
			if err != nil {
				return nil, err
			}
			if t > v.Threshold() {
				out = append(out, Model{
					Class:  DiagonalModel,
					Groups: dg, GroupBits: groupBits,
					Pattern: sub, T: t, Verified: true,
				})
			}
		}
	}
	return out, nil
}

// perGroupModels verifies each touched group as a standalone model.
func perGroupModels(ctx context.Context, v Verifier, stateBits int, groups []int, groupBits int, isAES bool) ([]Model, error) {
	var out []Model
	for _, g := range groups {
		sub := bitvec.New(stateBits)
		for j := 0; j < groupBits; j++ {
			sub.Set(g*groupBits + j)
		}
		t, err := v.Evaluate(ctx, &sub)
		if err != nil {
			return nil, err
		}
		if t > v.Threshold() {
			out = append(out, Model{
				Class:  classify([]int{g}, groupBits, isAES),
				Groups: []int{g}, GroupBits: groupBits,
				Pattern: sub, T: t, Verified: true,
			})
		}
	}
	return out, nil
}

// Abstract widens a raw RL pattern to group granularity, verifies the
// widened model with v, and returns the result. If the widened model does
// not verify but the raw pattern does, the raw pattern is returned as a
// RawPattern model; a single-bit raw pattern is reported as BitModel.
func Abstract(ctx context.Context, v Verifier, pattern *bitvec.Vector, groupBits int, isAES bool) (Model, error) {
	if pattern.IsZero() {
		return Model{}, fmt.Errorf("abstraction: empty pattern")
	}
	if pattern.Count() == 1 {
		t, err := v.Evaluate(ctx, pattern)
		if err != nil {
			return Model{}, err
		}
		return Model{
			Class: BitModel, Pattern: *pattern, GroupBits: groupBits,
			Groups: pattern.Groups(groupBits),
			T:      t, Verified: t > v.Threshold(),
		}, nil
	}
	groups, widened := Widen(pattern, groupBits)
	t, err := v.Evaluate(ctx, &widened)
	if err != nil {
		return Model{}, err
	}
	if t > v.Threshold() {
		return Model{
			Class:  classify(groups, groupBits, isAES),
			Groups: groups, GroupBits: groupBits,
			Pattern: widened, T: t, Verified: true,
		}, nil
	}
	// Widened model failed: report the specific multi-bit pattern.
	rawT, err := v.Evaluate(ctx, pattern)
	if err != nil {
		return Model{}, err
	}
	return Model{
		Class: RawPattern, Pattern: *pattern, GroupBits: groupBits,
		T: rawT, Verified: rawT > v.Threshold(),
	}, nil
}

// Siblings generates structural-symmetry candidates of a group set for
// re-verification (§III-F: "exploiting the structural similarities among
// different parts of a block cipher, we extend them to other undiscovered
// instances"). For AES byte models the symmetry is column rotation
// (which maps diagonals to diagonals); for nibble ciphers it is nibble
// translation. The original group set is not included.
func Siblings(groups []int, groupBits, stateBits int, isAES bool) [][]int {
	nGroups := stateBits / groupBits
	seen := map[string]bool{key(groups): true}
	var out [][]int
	add := func(g []int) {
		sort.Ints(g)
		k := key(g)
		if !seen[k] {
			seen[k] = true
			out = append(out, g)
		}
	}
	if isAES && groupBits == 8 {
		// Column rotation: byte (r, c) -> (r, (c+k) mod 4).
		for k := 1; k < 4; k++ {
			g := make([]int, len(groups))
			for i, b := range groups {
				r, c := b%4, b/4
				g[i] = 4*((c+k)%4) + r
			}
			add(g)
		}
		// Row rotation: byte (r, c) -> ((r+k) mod 4, c); together with
		// column rotation this reaches all 16 translations of a byte
		// and all 4 diagonals of a diagonal.
		for k := 1; k < 4; k++ {
			g := make([]int, len(groups))
			for i, b := range groups {
				r, c := b%4, b/4
				g[i] = 4*c + (r+k)%4
			}
			add(g)
		}
		return out
	}
	// Nibble ciphers: translate the whole set by every offset.
	for k := 1; k < nGroups; k++ {
		g := make([]int, len(groups))
		for i, b := range groups {
			g[i] = (b + k) % nGroups
		}
		add(g)
	}
	return out
}

func key(groups []int) string {
	parts := make([]string, len(groups))
	for i, g := range groups {
		parts[i] = fmt.Sprintf("%d", g)
	}
	return strings.Join(parts, ",")
}

// Extend verifies the structural siblings of a model and returns those
// that pass the t-test, as fully-formed models.
func Extend(ctx context.Context, v Verifier, m Model, isAES bool) ([]Model, error) {
	if m.Class == RawPattern || m.Class == BitModel {
		return nil, nil
	}
	var out []Model
	for _, g := range Siblings(m.Groups, m.GroupBits, v.StateBits(), isAES) {
		pattern := bitvec.New(v.StateBits())
		for _, grp := range g {
			for j := 0; j < m.GroupBits; j++ {
				pattern.Set(grp*m.GroupBits + j)
			}
		}
		t, err := v.Evaluate(ctx, &pattern)
		if err != nil {
			return nil, err
		}
		if t > v.Threshold() {
			out = append(out, Model{
				Class:  classify(g, m.GroupBits, isAES),
				Groups: g, GroupBits: m.GroupBits,
				Pattern: pattern, T: t, Verified: true,
			})
		}
	}
	return out, nil
}

// Dedupe removes models with identical keys, keeping the first occurrence.
func Dedupe(models []Model) []Model {
	seen := map[string]bool{}
	var out []Model
	for _, m := range models {
		if k := m.Key(); !seen[k] {
			seen[k] = true
			out = append(out, m)
		}
	}
	return out
}

// HarvestConfig controls Harvest.
type HarvestConfig struct {
	// MaxPatterns bounds how many distinct raw patterns are abstracted
	// (most-frequent first); 0 means 32.
	MaxPatterns int
	// ExtendSymmetry additionally verifies structural siblings. Models
	// covering more than half the state's groups are not extended:
	// their translations are near-duplicates that add nothing beyond
	// volume.
	ExtendSymmetry bool
	// IsAES enables diagonal classification and AES symmetries.
	IsAES bool
	// GroupBits is the abstraction granularity (4 or 8).
	GroupBits int
	// MaxPerClass caps how many models of each class survive (largest-T
	// first within a class); 0 means 16.
	MaxPerClass int
}

// Harvest abstracts a set of raw leaky patterns (typically from the
// training log plus the converged pattern) into a deduplicated, verified
// model list, optionally extended by symmetry.
func Harvest(ctx context.Context, v Verifier, patterns []bitvec.Vector, cfg HarvestConfig) ([]Model, error) {
	if cfg.MaxPatterns == 0 {
		cfg.MaxPatterns = 32
	}
	if cfg.GroupBits == 0 {
		return nil, fmt.Errorf("abstraction: HarvestConfig.GroupBits required")
	}
	if cfg.MaxPerClass == 0 {
		cfg.MaxPerClass = 16
	}
	totalGroups := v.StateBits() / cfg.GroupBits
	var models []Model
	seen := map[string]bool{}
	for i, p := range patterns {
		if i >= cfg.MaxPatterns {
			break
		}
		ms, err := AbstractAll(ctx, v, &p, cfg.GroupBits, cfg.IsAES)
		if err != nil {
			return nil, err
		}
		for _, m := range ms {
			if seen[m.Key()] {
				continue
			}
			seen[m.Key()] = true
			models = append(models, m)
			if cfg.ExtendSymmetry && len(m.Groups) <= totalGroups/2 {
				sibs, err := Extend(ctx, v, m, cfg.IsAES)
				if err != nil {
					return nil, err
				}
				for _, s := range sibs {
					if !seen[s.Key()] {
						seen[s.Key()] = true
						models = append(models, s)
					}
				}
			}
		}
	}
	return capPerClass(Dedupe(models), cfg.MaxPerClass), nil
}

// capPerClass keeps at most n models of each class, preferring higher
// verification statistics and, among equal ones, earlier models, while
// preserving the original ordering of the survivors.
func capPerClass(models []Model, n int) []Model {
	byClass := map[Class][]int{}
	for i, m := range models {
		byClass[m.Class] = append(byClass[m.Class], i)
	}
	drop := map[int]bool{}
	for _, idxs := range byClass {
		if len(idxs) <= n {
			continue
		}
		sorted := append([]int(nil), idxs...)
		sort.SliceStable(sorted, func(a, b int) bool {
			return models[sorted[a]].T > models[sorted[b]].T
		})
		for _, i := range sorted[n:] {
			drop[i] = true
		}
	}
	out := models[:0]
	for i, m := range models {
		if !drop[i] {
			out = append(out, m)
		}
	}
	return out
}
