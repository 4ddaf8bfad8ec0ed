// Package checkpoint implements the on-disk envelope for resumable runs:
// a magic string, a format version, a kind tag identifying the payload
// type, the payload length, and a SHA-256 checksum, followed by the
// gob-encoded payload. The envelope exists so that a truncated write, a
// bit flip, a file from a future format version, or a checkpoint of the
// wrong kind (a faultsim stage file passed to -resume, say) is reported
// as a clean error instead of a panic or — worse — a silently wrong
// resumed run.
//
// Writes go through Save, which writes to a temporary file in the same
// directory, fsyncs, and renames into place, so a crash mid-write never
// clobbers the previous good checkpoint.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Version is the current envelope format version. Decode rejects any
// other version; there is no cross-version migration, because a
// checkpoint is a mid-run artifact, not an archival format.
const Version = 1

var magic = []byte("EFCKPT")

// Sentinel errors for the distinct ways a checkpoint file can be bad.
// Callers should match with errors.Is.
var (
	// ErrFormat: the file is not a checkpoint at all, or is truncated.
	ErrFormat = errors.New("checkpoint: malformed or truncated file")
	// ErrVersion: valid envelope, but written by a different format version.
	ErrVersion = errors.New("checkpoint: unsupported format version")
	// ErrKind: valid envelope of the wrong payload kind.
	ErrKind = errors.New("checkpoint: wrong checkpoint kind")
	// ErrChecksum: envelope intact but the payload bytes do not match the
	// recorded SHA-256, i.e. the file was corrupted after writing.
	ErrChecksum = errors.New("checkpoint: payload checksum mismatch")
)

// Encode serializes payload under the given kind tag into a self-checking
// envelope.
func Encode(kind string, payload any) ([]byte, error) {
	body, err := encodeBody(kind, payload)
	if err != nil {
		return nil, err
	}
	return append(header(kind, body), body...), nil
}

// encodeBody gob-encodes the payload of an envelope.
func encodeBody(kind string, payload any) ([]byte, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(payload); err != nil {
		return nil, fmt.Errorf("checkpoint: encoding %s payload: %w", kind, err)
	}
	return body.Bytes(), nil
}

// header returns the envelope fields that precede body: magic, version,
// kind, payload length and payload checksum.
func header(kind string, body []byte) []byte {
	sum := sha256.Sum256(body)
	h := make([]byte, 0, len(magic)+2+2+len(kind)+8+sha256.Size)
	h = append(h, magic...)
	h = binary.BigEndian.AppendUint16(h, Version)
	h = binary.BigEndian.AppendUint16(h, uint16(len(kind)))
	h = append(h, kind...)
	h = binary.BigEndian.AppendUint64(h, uint64(len(body)))
	return append(h, sum[:]...)
}

// Decode parses an envelope produced by Encode, verifying magic, version,
// kind and checksum before gob-decoding the payload into out. It never
// panics on hostile input: gob decode panics are recovered and returned
// as errors.
func Decode(data []byte, kind string, out any) (err error) {
	rest := data
	take := func(n int) ([]byte, bool) {
		if len(rest) < n {
			return nil, false
		}
		b := rest[:n]
		rest = rest[n:]
		return b, true
	}

	m, ok := take(len(magic))
	if !ok || !bytes.Equal(m, magic) {
		return ErrFormat
	}
	vb, ok := take(2)
	if !ok {
		return ErrFormat
	}
	if v := binary.BigEndian.Uint16(vb); v != Version {
		return fmt.Errorf("%w: file has version %d, this build reads %d", ErrVersion, v, Version)
	}
	kb, ok := take(2)
	if !ok {
		return ErrFormat
	}
	kindBytes, ok := take(int(binary.BigEndian.Uint16(kb)))
	if !ok {
		return ErrFormat
	}
	lb, ok := take(8)
	if !ok {
		return ErrFormat
	}
	payloadLen := binary.BigEndian.Uint64(lb)
	sum, ok := take(sha256.Size)
	if !ok {
		return ErrFormat
	}
	if payloadLen != uint64(len(rest)) {
		return fmt.Errorf("%w: payload length %d, envelope declares %d", ErrFormat, len(rest), payloadLen)
	}
	if string(kindBytes) != kind {
		return fmt.Errorf("%w: file holds %q, want %q", ErrKind, kindBytes, kind)
	}
	if got := sha256.Sum256(rest); !bytes.Equal(got[:], sum) {
		return ErrChecksum
	}

	// gob's decoder can panic on pathological type descriptors; a corrupt
	// payload that happens to pass the checksum check (only possible for
	// a file written by a buggy encoder) must still fail cleanly.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: gob decode panicked: %v", ErrFormat, r)
		}
	}()
	if err := gob.NewDecoder(bytes.NewReader(rest)).Decode(out); err != nil {
		return fmt.Errorf("checkpoint: decoding %s payload: %w", kind, err)
	}
	return nil
}

// Save atomically writes payload to path: encode, write to a temporary
// file in the same directory, fsync, rename. A reader (or a crash) never
// observes a partially written checkpoint. The file holds exactly Encode's
// bytes, written as header and body so the payload is not copied into a
// second buffer.
func Save(path, kind string, payload any) error {
	body, err := encodeBody(kind, payload)
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	for _, part := range [][]byte{header(kind, body), body} {
		if _, err := tmp.Write(part); err != nil {
			tmp.Close()
			return fmt.Errorf("checkpoint: writing %s: %w", tmpName, err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("checkpoint: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("checkpoint: closing %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// Load reads and decodes the checkpoint at path. A missing file is
// reported as the underlying fs.ErrNotExist so callers can distinguish
// "no checkpoint yet" from "checkpoint is broken".
func Load(path, kind string, out any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return Decode(data, kind, out)
}
