package checkpoint

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// held is one state a store held on disk: the file length right after
// the write that produced it, and the stages it then stored.
type held struct {
	size   int
	stages map[string][]byte
}

// replayBytes opens a store from raw file bytes, as OpenStages does after
// reading the file.
func replayBytes(data []byte, kind, key string) (*Stages, error) {
	s := newStages("", kind, key)
	return s, s.replay(data)
}

func sameStages(a, b map[string][]byte) bool { return maps.EqualFunc(a, b, bytes.Equal) }

// TestStagesEveryPrefixReopensToAHeldState pins the log's crash
// semantics: a scripted run of puts, overwrites and deletes compacts
// once and keeps writing, and every byte prefix of the resulting file
// either fails inside the snapshot, as a torn snapshot did before the
// log, or reopens to exactly the state after the last whole record in it
// and reports the rest as dropped.
func TestStagesEveryPrefixReopensToAHeldState(t *testing.T) {
	const kind, key = "test-stages", "k"
	path := filepath.Join(t.TempDir(), "stages.ck")
	s, err := OpenStages(path, kind, key)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	names := []string{"a", "b", "c", "d"}
	var (
		states   []held // the states written since the last whole-file write
		file     []byte
		rewrites int
	)
	for rewrites < 2 || len(states) < 16 {
		name := names[rng.IntN(len(names))]
		if s.Done(name, nil) && rng.IntN(4) == 0 {
			err = s.Delete(name)
		} else {
			val := make([]byte, 500+rng.IntN(1000))
			for i := range val {
				val[i] = byte(rng.Uint32())
			}
			err = s.Put(name, val)
		}
		if err != nil {
			t.Fatal(err)
		}
		cur, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(cur) <= len(file) || !bytes.HasPrefix(cur, file) {
			// The first write creates the file, the second compacts it.
			rewrites++
			states = nil
		}
		states = append(states, held{len(cur), maps.Clone(s.data.Stages)})
		file = cur
	}
	if rewrites != 2 {
		t.Fatalf("want the creation and one compaction, got %d whole-file writes", rewrites)
	}

	for p := 0; p <= len(file); p++ {
		r, err := replayBytes(file[:p], kind, key)
		if p < states[0].size {
			if err == nil {
				t.Fatalf("prefix %d inside the %d-byte snapshot opened", p, states[0].size)
			}
			continue
		}
		if err != nil {
			t.Fatalf("prefix %d: %v", p, err)
		}
		i := sort.Search(len(states), func(i int) bool { return states[i].size > p }) - 1
		if !sameStages(r.data.Stages, states[i].stages) {
			t.Fatalf("prefix %d reopened to a state other than the one after write %d", p, i)
		}
		if got, want := r.DroppedBytes(), int64(p-states[i].size); got != want {
			t.Fatalf("prefix %d dropped %d bytes, want %d", p, got, want)
		}
	}
}

// TestStagesFlippedByteDropsTheDelta flips every byte of every delta in
// turn: the store must reopen to the state before that delta, report the
// delta and everything after it as dropped, and rewrite the file on its
// next write.
func TestStagesFlippedByteDropsTheDelta(t *testing.T) {
	const kind, key = "test-stages", "k"
	path := filepath.Join(t.TempDir(), "stages.ck")
	s, err := OpenStages(path, kind, key)
	if err != nil {
		t.Fatal(err)
	}
	steps := []func() error{
		func() error { return s.Put("a", stageVal{N: 1}) }, // creates the file
		func() error { return s.Put("b", stageVal{N: 2, S: "two"}) },
		func() error { return s.Put("a", stageVal{N: 3}) },
		func() error { return s.Delete("b") },
		func() error { return s.Put("c", []byte("third")) },
	}
	var states []held
	for _, step := range steps {
		if err := step(); err != nil {
			t.Fatal(err)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, held{int(st.Size()), maps.Clone(s.data.Stages)})
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	for d := 1; d < len(states); d++ {
		before := states[d-1]
		for off := before.size; off < states[d].size; off++ {
			bad := bytes.Clone(file)
			bad[off] ^= 0x20
			r, err := replayBytes(bad, kind, key)
			if err != nil {
				t.Fatalf("delta %d, byte %d: %v", d, off-before.size, err)
			}
			if !sameStages(r.data.Stages, before.stages) {
				t.Fatalf("delta %d, byte %d: reopened past the damaged delta", d, off-before.size)
			}
			if got, want := r.DroppedBytes(), int64(len(file)-before.size); got != want {
				t.Fatalf("delta %d, byte %d: dropped %d bytes, want %d", d, off-before.size, got, want)
			}
		}
	}

	// The write after a dropped tail rewrites the file, so nothing of the
	// damaged delta survives it.
	bad := bytes.Clone(file)
	bad[states[2].size+3] ^= 0x20
	if err := os.WriteFile(path, bad, 0o600); err != nil {
		t.Fatal(err)
	}
	r, err := OpenStages(path, kind, key)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Put("d", stageVal{N: 4}); err != nil {
		t.Fatal(err)
	}
	want := maps.Clone(states[2].stages)
	want["d"] = r.data.Stages["d"]
	r2, err := OpenStages(path, kind, key)
	if err != nil {
		t.Fatal(err)
	}
	if r2.DroppedBytes() != 0 || !sameStages(r2.data.Stages, want) {
		t.Fatalf("after rewrite: dropped %d, stages %v", r2.DroppedBytes(), r2.Names())
	}
}

// TestStagesKeyMismatchLeavesNoForeignDeltas opens a store with deltas
// under another key and writes to it: the write replaces the whole file,
// so neither the foreign snapshot nor its deltas survive.
func TestStagesKeyMismatchLeavesNoForeignDeltas(t *testing.T) {
	const kind = "test-stages"
	path := filepath.Join(t.TempDir(), "stages.ck")
	s, err := OpenStages(path, kind, "k1")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if err := s.Put(name, stageVal{N: len(name)}); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := OpenStages(path, kind, "k2")
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 0 || s2.DroppedBytes() != 0 {
		t.Fatalf("foreign store: len %d, dropped %d", s2.Len(), s2.DroppedBytes())
	}
	if err := s2.Put("z", stageVal{N: 26}); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap stagesPayload
	if err := Decode(file, kind, &snap); err != nil {
		t.Fatalf("file after the first write under a new key is not one snapshot: %v", err)
	}
	if snap.Key != "k2" || len(snap.Stages) != 1 || snap.Stages["z"] == nil {
		t.Fatalf("snapshot after the rewrite: key %q, %d stages", snap.Key, len(snap.Stages))
	}
	if s1, err := OpenStages(path, kind, "k1"); err != nil || s1.Len() != 0 {
		t.Fatalf("old key still finds stages: len %d, err %v", s1.Len(), err)
	}
}

// TestStagesOpensParentFormat opens a store file written by the
// whole-file store that preceded the log (puts of a, b, c and d, an
// overwrite of b, a delete of d, then a put of seq): every stage comes
// back, and the store then grows by appending to that file.
func TestStagesOpensParentFormat(t *testing.T) {
	old, err := os.ReadFile(filepath.Join("testdata", "stages-v1.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "stages.ck")
	if err := os.WriteFile(path, old, 0o600); err != nil {
		t.Fatal(err)
	}
	check := func(s *Stages, want map[string]stageVal, wantSeq uint64) {
		t.Helper()
		var seq uint64
		if !s.Done("seq", &seq) || seq != wantSeq {
			t.Fatalf("seq = %d, want %d", seq, wantSeq)
		}
		if s.Len() != len(want)+1 {
			t.Fatalf("stages %v, want %d", s.Names(), len(want)+1)
		}
		for name, w := range want {
			var got stageVal
			if !s.Done(name, &got) || got != w {
				t.Fatalf("stage %s = %+v, want %+v", name, got, w)
			}
		}
	}
	want := map[string]stageVal{
		"a": {N: 1, S: "stage a"},
		"b": {N: 20, S: "stage b, overwritten"},
		"c": {N: 3, S: "stage c"},
	}
	s, err := OpenStages(path, "test-stages", "k1")
	if err != nil {
		t.Fatal(err)
	}
	check(s, want, 42)

	if err := s.Put("e", stageVal{N: 5, S: "stage e"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("seq", uint64(43)); err != nil {
		t.Fatal(err)
	}
	grown, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(grown, old) {
		t.Fatal("writing to an old store rewrote it instead of appending")
	}
	delete(want, "a")
	want["e"] = stageVal{N: 5, S: "stage e"}
	s2, err := OpenStages(path, "test-stages", "k1")
	if err != nil {
		t.Fatal(err)
	}
	check(s2, want, 43)
}

// TestStagesFailedAppendRewrites makes one append fail (the store path
// turns into a directory) and requires the next write to replace the
// whole file with the store's full state.
func TestStagesFailedAppendRewrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stages.ck")
	s, err := OpenStages(path, "test-stages", "k")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("a", stageVal{N: 1}); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("b", stageVal{N: 2}); err == nil {
		t.Fatal("appending to a directory succeeded")
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("c", stageVal{N: 3}); err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap stagesPayload
	if err := Decode(file, "test-stages", &snap); err != nil {
		t.Fatalf("write after a failed append is not a whole rewrite: %v", err)
	}
	if len(snap.Stages) != 3 {
		t.Fatalf("rewrite holds %d stages, want 3", len(snap.Stages))
	}
}

// TestStagesAppendsOneDeltaPerWrite pins the write path's cost: each Put
// or Delete below the compaction bound grows the file by exactly its
// delta record, and a write past the bound rewrites it as one snapshot.
func TestStagesAppendsOneDeltaPerWrite(t *testing.T) {
	const kind = "test-stages"
	path := filepath.Join(t.TempDir(), "stages.ck")
	s, err := OpenStages(path, kind, "k")
	if err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		t.Helper()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}
	val := bytes.Repeat([]byte{7}, 1000)
	if err := s.Put("v", val); err != nil {
		t.Fatal(err)
	}
	raw := s.data.Stages["v"]
	for i := 0; ; i++ {
		before := size()
		if err := s.Put("v", val); err != nil {
			t.Fatal(err)
		}
		grew := size() - before
		if grew < 0 {
			// Compacted: the file is one snapshot again, and only once
			// the superseded overwrites passed the bound.
			if before+deltaSize(kind, "v", raw) <= 2*s.live+compactFloor {
				t.Fatalf("compacted at %d bytes, below the bound", before)
			}
			file, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var snap stagesPayload
			if err := Decode(file, kind, &snap); err != nil {
				t.Fatalf("compacted file: %v", err)
			}
			break
		}
		if grew != deltaSize(kind, "v", raw) {
			t.Fatalf("write %d grew the file by %d bytes, want one %d-byte delta", i, grew, deltaSize(kind, "v", raw))
		}
	}
	before := size()
	if err := s.Delete("v"); err != nil {
		t.Fatal(err)
	}
	if got, want := size()-before, int64(len(encodeDelta(kind, "v", nil, deltaDelete))); got != want {
		t.Fatalf("delete grew the file by %d bytes, want %d", got, want)
	}
}

// BenchmarkStagesOpen reopens a churned store beside the same records
// saved as one snapshot. The churned store cycles through 200 record
// names, putting each as a delta and, after the first pass, deleting
// every tenth, up to the write that would compact it: the most
// delta-heavy file the store reopens.
func BenchmarkStagesOpen(b *testing.B) {
	const kind, key, records = "test-stages", "k", 200
	dir := b.TempDir()
	churned := filepath.Join(dir, "churned.ck")
	s, err := OpenStages(churned, kind, key)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 4))
	var last []byte
	for i := 0; ; i++ {
		name := fmt.Sprintf("job-%03d", i%records)
		if i >= records && i%10 == 0 {
			err = s.Delete(name)
		} else {
			err = s.Put(name, stageVal{N: i, S: strings.Repeat("x", 400+rng.IntN(400))})
		}
		if err != nil {
			b.Fatal(err)
		}
		cur, err := os.ReadFile(churned)
		if err != nil {
			b.Fatal(err)
		}
		if len(cur) < len(last) {
			break // compacted: keep the file as it was just before
		}
		last = cur
	}
	if err := os.WriteFile(churned, last, 0o600); err != nil {
		b.Fatal(err)
	}
	want, err := OpenStages(churned, kind, key)
	if err != nil {
		b.Fatal(err)
	}
	snapshot := filepath.Join(dir, "snapshot.ck")
	if err := Save(snapshot, kind, &want.data); err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct{ name, path string }{{"churned", churned}, {"snapshot", snapshot}} {
		b.Run(bc.name, func(b *testing.B) {
			st, err := os.Stat(bc.path)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(st.Size())
			for i := 0; i < b.N; i++ {
				r, err := OpenStages(bc.path, kind, key)
				if err != nil {
					b.Fatal(err)
				}
				if r.Len() != want.Len() {
					b.Fatalf("reopened %d records, want %d", r.Len(), want.Len())
				}
			}
		})
	}
}
