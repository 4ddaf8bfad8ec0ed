package abstraction

import (
	"context"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/ciphers"
	_ "repro/internal/ciphers/aes"
	"repro/internal/evaluate"
	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/prng"
)

// xorVerifier binds the bit-flip model onto an explore.Oracle so the
// model-free abstraction Verifier can drive it (the same adaptation the
// discovery pipeline performs per harvested model).
type xorVerifier struct{ o explore.Oracle }

func (v xorVerifier) Evaluate(ctx context.Context, p *bitvec.Vector) (float64, error) {
	return v.o.Evaluate(ctx, p, fault.XorFlip)
}
func (v xorVerifier) Threshold() float64 { return v.o.Threshold() }
func (v xorVerifier) StateBits() int     { return v.o.StateBits() }

// fakeVerifier marks a pattern leaky iff every set bit lies inside the
// allowed set, and returns 100 for leaky / 1 for non-leaky.
type fakeVerifier struct {
	bits    int
	allowed bitvec.Vector
}

func (f *fakeVerifier) Evaluate(_ context.Context, p *bitvec.Vector) (float64, error) {
	if p.SubsetOf(&f.allowed) {
		return 100, nil
	}
	return 1, nil
}
func (f *fakeVerifier) Threshold() float64 { return 4.5 }
func (f *fakeVerifier) StateBits() int     { return f.bits }

func allowBytes(bits int, bytes ...int) bitvec.Vector {
	v := bitvec.New(bits)
	for _, b := range bytes {
		for j := 0; j < 8; j++ {
			v.Set(8*b + j)
		}
	}
	return v
}

func TestWiden(t *testing.T) {
	p := bitvec.FromBits(128, 17, 23, 100)
	groups, widened := Widen(&p, 8)
	if !reflect.DeepEqual(groups, []int{2, 12}) {
		t.Errorf("groups = %v, want [2 12]", groups)
	}
	if widened.Count() != 16 {
		t.Errorf("widened has %d bits, want 16", widened.Count())
	}
	if !p.SubsetOf(&widened) {
		t.Error("original pattern not contained in widened pattern")
	}

	ng, nw := Widen(&p, 4)
	if !reflect.DeepEqual(ng, []int{4, 5, 25}) {
		t.Errorf("nibble groups = %v", ng)
	}
	if nw.Count() != 12 {
		t.Errorf("nibble widened has %d bits", nw.Count())
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		groups    []int
		groupBits int
		isAES     bool
		want      Class
	}{
		{[]int{5}, 8, true, ByteModel},
		{[]int{2, 7, 8, 13}, 8, true, DiagonalModel},
		{[]int{2, 7}, 8, true, DiagonalModel}, // partial diagonal
		{[]int{0, 1}, 8, true, MultiByteModel},
		{[]int{0, 1}, 8, false, MultiByteModel},
		{[]int{3}, 4, false, NibbleModel},
		{[]int{8, 9, 10, 11, 12, 14}, 4, false, MultiNibbleModel},
	}
	for _, tc := range cases {
		if got := classify(tc.groups, tc.groupBits, tc.isAES); got != tc.want {
			t.Errorf("classify(%v, %d, %v) = %v, want %v", tc.groups, tc.groupBits, tc.isAES, got, tc.want)
		}
	}
}

func TestAbstractWidensAndVerifies(t *testing.T) {
	v := &fakeVerifier{bits: 128, allowed: allowBytes(128, 2, 7, 8, 13)}
	// Raw pattern: scattered bits inside diagonal-2 bytes.
	p := bitvec.FromBits(128, 17, 18, 60, 70, 105)
	m, err := Abstract(context.Background(), v, &p, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Verified {
		t.Fatal("widened diagonal model should verify")
	}
	if m.Class != DiagonalModel {
		t.Errorf("class = %v, want diagonal", m.Class)
	}
	if !reflect.DeepEqual(m.Groups, []int{2, 7, 8, 13}) {
		t.Errorf("groups = %v", m.Groups)
	}
	if m.Pattern.Count() != 32 {
		t.Errorf("pattern bits = %d, want 32", m.Pattern.Count())
	}
}

func TestAbstractFallsBackToRawPattern(t *testing.T) {
	// The allowed set covers only the raw bits, so the widened byte
	// pattern fails but the raw pattern passes.
	raw := bitvec.FromBits(128, 16, 17)
	v := &fakeVerifier{bits: 128, allowed: raw}
	m, err := Abstract(context.Background(), v, &raw, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Class != RawPattern {
		t.Errorf("class = %v, want raw-pattern", m.Class)
	}
	if !m.Verified {
		t.Error("raw pattern should verify")
	}
	if !m.Pattern.Equal(&raw) {
		t.Error("raw pattern should be preserved")
	}
}

func TestAbstractSingleBit(t *testing.T) {
	p := bitvec.FromBits(128, 77)
	v := &fakeVerifier{bits: 128, allowed: p}
	m, err := Abstract(context.Background(), v, &p, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Class != BitModel || !m.Verified {
		t.Errorf("got %v verified=%v, want verified bit model", m.Class, m.Verified)
	}
}

func TestAbstractRejectsEmpty(t *testing.T) {
	p := bitvec.New(128)
	v := &fakeVerifier{bits: 128, allowed: p}
	if _, err := Abstract(context.Background(), v, &p, 8, true); err == nil {
		t.Error("Abstract accepted empty pattern")
	}
}

func TestSiblingsAESByte(t *testing.T) {
	sibs := Siblings([]int{0}, 8, 128, true)
	// Column + row rotations of a single byte give 6 distinct positions
	// (3 column shifts + 3 row shifts).
	if len(sibs) != 6 {
		t.Errorf("single-byte siblings = %v (%d), want 6", sibs, len(sibs))
	}
	for _, s := range sibs {
		if len(s) != 1 {
			t.Errorf("sibling %v changed cardinality", s)
		}
	}
}

func TestSiblingsAESDiagonalCoversAllDiagonals(t *testing.T) {
	d2 := []int{2, 7, 8, 13}
	sibs := Siblings(d2, 8, 128, true)
	// Expect the other three diagonals to appear among the siblings.
	wantDiagonals := map[string]bool{
		"0,5,10,15": false,
		"1,6,11,12": false,
		"3,4,9,14":  false,
	}
	for _, s := range sibs {
		sort.Ints(s)
		if _, ok := wantDiagonals[key(s)]; ok {
			wantDiagonals[key(s)] = true
		}
	}
	for d, seen := range wantDiagonals {
		if !seen {
			t.Errorf("diagonal {%s} not generated by symmetry", d)
		}
	}
}

func TestSiblingsNibbleTranslation(t *testing.T) {
	sibs := Siblings([]int{8, 9}, 4, 64, false)
	if len(sibs) != 15 {
		t.Errorf("%d siblings, want 15 translations", len(sibs))
	}
	for _, s := range sibs {
		if len(s) != 2 {
			t.Errorf("sibling %v changed cardinality", s)
		}
	}
}

func TestExtendVerifiesSiblings(t *testing.T) {
	// Allow two diagonals: the original (D2) and D0. Extension must
	// produce exactly the D0 diagonal model.
	allowed := allowBytes(128, 2, 7, 8, 13, 0, 5, 10, 15)
	v := &fakeVerifier{bits: 128, allowed: allowed}
	m := Model{
		Class: DiagonalModel, Groups: []int{2, 7, 8, 13}, GroupBits: 8,
		Pattern: allowBytes(128, 2, 7, 8, 13), Verified: true,
	}
	sibs, err := Extend(context.Background(), v, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(sibs) != 1 {
		t.Fatalf("extended to %d models, want 1", len(sibs))
	}
	if !reflect.DeepEqual(sibs[0].Groups, []int{0, 5, 10, 15}) {
		t.Errorf("extended groups = %v", sibs[0].Groups)
	}
	if sibs[0].Class != DiagonalModel {
		t.Errorf("extended class = %v", sibs[0].Class)
	}
}

func TestExtendSkipsRawAndBit(t *testing.T) {
	v := &fakeVerifier{bits: 128, allowed: allowBytes(128, 0)}
	for _, class := range []Class{RawPattern, BitModel} {
		m := Model{Class: class, Pattern: bitvec.FromBits(128, 3)}
		sibs, err := Extend(context.Background(), v, m, true)
		if err != nil {
			t.Fatal(err)
		}
		if sibs != nil {
			t.Errorf("%v model extended to %v", class, sibs)
		}
	}
}

func TestDedupe(t *testing.T) {
	a := Model{Class: ByteModel, GroupBits: 8, Pattern: allowBytes(128, 1)}
	b := Model{Class: ByteModel, GroupBits: 8, Pattern: allowBytes(128, 1)}
	c := Model{Class: ByteModel, GroupBits: 8, Pattern: allowBytes(128, 2)}
	out := Dedupe([]Model{a, b, c})
	if len(out) != 2 {
		t.Errorf("Dedupe kept %d models, want 2", len(out))
	}
}

func TestHarvestEndToEndFake(t *testing.T) {
	v := &fakeVerifier{bits: 128, allowed: allowBytes(128, 2, 7, 8, 13)}
	patterns := []bitvec.Vector{
		bitvec.FromBits(128, 17),         // bit inside byte 2
		bitvec.FromBits(128, 17, 58),     // bits in bytes 2 and 7
		bitvec.FromBits(128, 17, 18, 19), // dup after widening
	}
	models, err := Harvest(context.Background(), v, patterns, HarvestConfig{GroupBits: 8, IsAES: true})
	if err != nil {
		t.Fatal(err)
	}
	// Expected: bit{2}, diagonal{2,7} plus its per-byte subsets byte{2}
	// and byte{7} (subsets of a fault model are fault models, §III-B).
	if len(models) != 4 {
		t.Fatalf("harvested %v, want 4 models", models)
	}
	classes := map[Class]int{}
	for _, m := range models {
		classes[m.Class]++
	}
	if classes[BitModel] != 1 || classes[DiagonalModel] != 1 || classes[ByteModel] != 2 {
		t.Errorf("class census wrong: %v", classes)
	}
}

// diagonalVerifier marks a pattern leaky iff all its bytes lie in one
// AES diagonal, so a raw pattern spanning two diagonals does not verify
// as a whole but each diagonal's sub-pattern does.
type diagonalVerifier struct{ fakeVerifier }

func (d *diagonalVerifier) Evaluate(_ context.Context, p *bitvec.Vector) (float64, error) {
	groups, _ := Widen(p, 8)
	for _, g := range groups {
		if aesDiagonalOf(g) != aesDiagonalOf(groups[0]) {
			return 1, nil
		}
	}
	return 100, nil
}

// TestHarvestDeterministic pins that Harvest returns the same model list,
// in the same order, on every call: one AES pattern touching two bytes of
// each of two diagonals yields two diagonal sub-models with equal
// statistics, and their order used to follow map iteration.
func TestHarvestDeterministic(t *testing.T) {
	v := &diagonalVerifier{fakeVerifier{bits: 128}}
	// Bytes 0 and 5 lie on diagonal 0, bytes 1 and 6 on diagonal 1.
	patterns := []bitvec.Vector{bitvec.FromBits(128, 0, 40, 8, 48)}
	var first []Model
	for call := 0; call < 50; call++ {
		models, err := Harvest(context.Background(), v, patterns, HarvestConfig{GroupBits: 8, IsAES: true})
		if err != nil {
			t.Fatal(err)
		}
		diagonals := 0
		for _, m := range models {
			if m.Class == DiagonalModel {
				diagonals++
			}
		}
		if diagonals != 2 {
			t.Fatalf("harvested %d diagonal models, want 2: %v", diagonals, models)
		}
		if call == 0 {
			first = models
			continue
		}
		if !reflect.DeepEqual(models, first) {
			t.Fatalf("call %d harvested %v, first call %v", call, models, first)
		}
	}
}

// TestCapPerClassKeepsEarliestTies pins the tie-break of the per-class
// cap: among models of equal statistics the earliest survive, in order.
// More than 16 of the 40 models tie at the top statistic.
func TestCapPerClassKeepsEarliestTies(t *testing.T) {
	var models, want []Model
	for g := 0; g < 40; g++ {
		m := Model{Class: ByteModel, Groups: []int{g}, GroupBits: 8, T: 50}
		if g%2 == 0 || g%3 == 0 {
			m.T = 100
			if len(want) < 16 {
				want = append(want, m)
			}
		}
		models = append(models, m)
	}
	if got := capPerClass(models, 16); !reflect.DeepEqual(got, want) {
		t.Fatalf("kept %v, want the first 16 models of the top statistic %v", got, want)
	}
}

func TestHarvestRequiresGroupBits(t *testing.T) {
	v := &fakeVerifier{bits: 128}
	if _, err := Harvest(context.Background(), v, nil, HarvestConfig{}); err == nil {
		t.Error("Harvest accepted zero GroupBits")
	}
}

// TestAESDiagonalExtensionIntegration runs the real leakage oracle: from
// one discovered diagonal representative, symmetry extension must verify
// all four AES diagonals (how Table III's diagonal row is filled).
func TestAESDiagonalExtensionIntegration(t *testing.T) {
	rng := prng.New(2024)
	cipherKey := make([]byte, 16)
	rng.Fill(cipherKey)
	c, err := ciphers.New("aes128", cipherKey)
	if err != nil {
		t.Fatal(err)
	}
	e, err := evaluate.New(c, evaluate.Config{Samples: 1024, Seed: rng.Split().Uint64()})
	if err != nil {
		t.Fatal(err)
	}
	oracle := xorVerifier{o: &explore.AssessorOracle{Engine: e, Round: 8}}

	raw := bitvec.FromBits(128, 17, 22, 59, 60, 68, 106) // bits in bytes 2,7,8,13
	m, err := Abstract(context.Background(), oracle, &raw, 8, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Class != DiagonalModel || !m.Verified {
		t.Fatalf("abstracted to %v (verified=%v), want verified diagonal", m.Class, m.Verified)
	}
	sibs, err := Extend(context.Background(), oracle, m, true)
	if err != nil {
		t.Fatal(err)
	}
	diagonals := map[string]bool{}
	for _, s := range sibs {
		if s.Class == DiagonalModel {
			diagonals[key(s.Groups)] = true
		}
	}
	for _, want := range []string{"0,5,10,15", "1,6,11,12", "3,4,9,14"} {
		if !diagonals[want] {
			t.Errorf("diagonal {%s} not verified by extension", want)
		}
	}
}
