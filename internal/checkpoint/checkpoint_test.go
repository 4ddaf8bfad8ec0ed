package checkpoint

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
)

// samplePayload stands in for a real session snapshot: nested slices and
// scalar fields exercise the same gob shapes the session checkpoint uses.
type samplePayload struct {
	Episodes int
	Words    [4]uint64
	Weights  [][]float64
	Label    string
}

func sample() samplePayload {
	return samplePayload{
		Episodes: 1234,
		Words:    [4]uint64{1, 2, 3, 4},
		Weights:  [][]float64{{0.5, -1.25}, {3.75}},
		Label:    "gift64|r25",
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	data, err := Encode("session", sample())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	var got samplePayload
	if err := Decode(data, "session", &got); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	want := sample()
	if got.Episodes != want.Episodes || got.Words != want.Words || got.Label != want.Label {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, want)
	}
	if len(got.Weights) != 2 || got.Weights[0][1] != -1.25 {
		t.Fatalf("weights did not round trip: %+v", got.Weights)
	}
}

func TestDecodeRejectsBadInput(t *testing.T) {
	valid, err := Encode("session", sample())
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}

	corrupt := append([]byte(nil), valid...)
	corrupt[len(corrupt)-1] ^= 0xff

	versionSkew := append([]byte(nil), valid...)
	versionSkew[6], versionSkew[7] = 0xff, 0xfe // version field follows the 6-byte magic

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"empty", nil, ErrFormat},
		{"not a checkpoint", []byte("definitely not a checkpoint file"), ErrFormat},
		{"truncated header", valid[:8], ErrFormat},
		{"truncated payload", valid[:len(valid)-5], ErrFormat},
		{"corrupted payload", corrupt, ErrChecksum},
		{"version skew", versionSkew, ErrVersion},
	}
	for _, tc := range cases {
		var got samplePayload
		err := Decode(tc.data, "session", &got)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got error %v, want %v", tc.name, err, tc.want)
		}
	}

	var got samplePayload
	if err := Decode(valid, "faultsim", &got); !errors.Is(err, ErrKind) {
		t.Errorf("kind mismatch: got error %v, want ErrKind", err)
	}
}

func TestSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, "session", sample()); err != nil {
		t.Fatalf("Save: %v", err)
	}
	var got samplePayload
	if err := Load(path, "session", &got); err != nil {
		t.Fatalf("Load: %v", err)
	}
	if got.Episodes != 1234 {
		t.Fatalf("loaded Episodes = %d, want 1234", got.Episodes)
	}
	// No temporary files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

// TestSaveWritesEncodeBytes pins that Save, which writes the envelope
// header and the gob body separately, leaves exactly Encode's bytes on
// disk.
func TestSaveWritesEncodeBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, "session", sample()); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Encode("session", sample())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("saved file (%d bytes) differs from Encode's output (%d bytes)", len(got), len(want))
	}
}

func TestSaveOverwritesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	first := sample()
	if err := Save(path, "session", first); err != nil {
		t.Fatal(err)
	}
	second := sample()
	second.Episodes = 9999
	if err := Save(path, "session", second); err != nil {
		t.Fatal(err)
	}
	var got samplePayload
	if err := Load(path, "session", &got); err != nil {
		t.Fatal(err)
	}
	if got.Episodes != 9999 {
		t.Fatalf("loaded Episodes = %d, want the overwritten 9999", got.Episodes)
	}
}

func TestLoadMissingFileIsNotExist(t *testing.T) {
	var got samplePayload
	err := Load(filepath.Join(t.TempDir(), "absent.ckpt"), "session", &got)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("got %v, want fs.ErrNotExist", err)
	}
}
