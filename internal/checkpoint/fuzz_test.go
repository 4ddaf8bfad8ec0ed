package checkpoint

import (
	"bytes"
	"encoding/gob"
	"maps"
	"os"
	"path/filepath"
	"testing"
)

// FuzzCheckpointDecode feeds arbitrary bytes to Decode and asserts the
// contract that matters for resume safety: hostile input (truncations,
// bit flips, version skew, garbage) must produce an error — one of the
// envelope sentinels or a gob decode error — and must never panic or
// succeed. Only bytes that byte-for-byte round-trip through Encode may
// decode cleanly.
func FuzzCheckpointDecode(f *testing.F) {
	valid, err := Encode("session", sample())
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(nil))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("EFCKPT"))
	skew := append([]byte(nil), valid...)
	skew[7] = 99
	f.Add(skew)
	flip := append([]byte(nil), valid...)
	flip[len(flip)-3] ^= 0x40
	f.Add(flip)

	f.Fuzz(func(t *testing.T, data []byte) {
		var got samplePayload
		err := Decode(data, "session", &got) // must not panic
		if err == nil {
			reenc, encErr := Encode("session", got)
			if encErr != nil {
				t.Fatalf("decoded payload fails to re-encode: %v", encErr)
			}
			if string(reenc) != string(data) {
				t.Fatalf("Decode accepted bytes that are not a canonical encoding")
			}
		}
	})
}

// FuzzStagesOpen appends arbitrary bytes to a valid store snapshot and
// opens the result. Open must not fail or panic; every delta it replays
// must be byte for byte one the writer produces, and the state it returns
// must be the snapshot with exactly those deltas applied. A Put and a
// reopen must then return that state plus the put, with nothing dropped.
func FuzzStagesOpen(f *testing.F) {
	const kind, key = "test-stages", "k"
	gobOf := func(v any) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	base := map[string][]byte{"a": gobOf(1), "b": gobOf("two")}
	snap, err := Encode(kind, &stagesPayload{Key: key, Stages: base})
	if err != nil {
		f.Fatal(err)
	}
	put := encodeDelta(kind, "c", gobOf(3), deltaPut)
	del := encodeDelta(kind, "a", nil, deltaDelete)
	f.Add([]byte(nil))
	f.Add(bytes.Clone(put))
	f.Add(append(bytes.Clone(put), del...))
	f.Add(append(bytes.Clone(del), put[:len(put)/2]...))
	// A delete of "a" whose name length is a non-minimal uvarint: the
	// writer never produces it, so replay must stop there.
	long := []byte{0x81, 0x00, 'a', deltaDelete}
	f.Add(append(header(deltaKind(kind), long), long...))

	f.Fuzz(func(t *testing.T, tail []byte) {
		data := append(bytes.Clone(snap), tail...)
		s, err := replayBytes(data, kind, key)
		if err != nil {
			t.Fatalf("a valid snapshot failed to open: %v", err)
		}
		want := maps.Clone(base)
		replayed := tail[:len(tail)-int(s.DroppedBytes())]
		for len(replayed) > 0 {
			env, next, err := cut(replayed)
			if err != nil {
				t.Fatalf("replayed bytes do not split into envelopes: %v", err)
			}
			name, val, tag, ok := parseDelta(env.body)
			if !ok || !bytes.Equal(encodeDelta(kind, name, val, tag), replayed[:len(replayed)-len(next)]) {
				t.Fatal("replayed a delta the writer does not produce")
			}
			if tag == deltaDelete {
				delete(want, name)
			} else {
				want[name] = val
			}
			replayed = next
		}
		if !sameStages(s.data.Stages, want) {
			t.Fatalf("state %v is not the snapshot plus the replayed deltas", s.Names())
		}

		path := filepath.Join(t.TempDir(), "stages.ck")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		w, err := OpenStages(path, kind, key)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Put("fuzz-put", 7); err != nil {
			t.Fatal(err)
		}
		want["fuzz-put"] = gobOf(7)
		r, err := OpenStages(path, kind, key)
		if err != nil {
			t.Fatal(err)
		}
		if r.DroppedBytes() != 0 || !sameStages(r.data.Stages, want) {
			t.Fatalf("after a put: dropped %d, stages %v", r.DroppedBytes(), r.Names())
		}
	})
}
