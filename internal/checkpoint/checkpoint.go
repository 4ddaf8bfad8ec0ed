// Package checkpoint implements the on-disk envelope for resumable runs:
// a magic string, a format version, a kind tag identifying the payload
// type, the payload length, and a SHA-256 checksum, followed by the
// gob-encoded payload. The envelope exists so that a truncated write, a
// bit flip, a file from a future format version, or a checkpoint of the
// wrong kind (a faultsim stage file passed to -resume, say) is reported
// as a clean error instead of a panic or — worse — a silently wrong
// resumed run.
//
// Whole files are written by Save, which writes to a temporary file in
// the same directory, fsyncs, renames into place and fsyncs the
// directory, so a crash mid-write never clobbers the previous good
// checkpoint and a returned Save survives a power cut. Stages stores
// append small checksummed delta envelopes to such a file between
// whole rewrites (see Stages).
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
	"runtime"
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
	h := make([]byte, 0, headerSize(kind))
	h = append(h, magic...)
	h = binary.BigEndian.AppendUint16(h, Version)
	h = binary.BigEndian.AppendUint16(h, uint16(len(kind)))
	h = append(h, kind...)
	h = binary.BigEndian.AppendUint64(h, uint64(len(body)))
	return append(h, sum[:]...)
}

// headerSize is the length of an envelope header for kind.
func headerSize(kind string) int { return len(magic) + 2 + 2 + len(kind) + 8 + sha256.Size }

// envelope is one parsed record: its kind tag, the checksum recorded in
// its header, and its payload bytes.
type envelope struct {
	kind string
	sum  []byte
	body []byte
}

// cut parses the envelope at the start of data and returns it with the
// bytes that follow it. It checks the structure only — magic, version
// and that the declared payload fits in data — and leaves the kind and
// checksum to check, so Decode can report a length mismatch first.
func cut(data []byte) (env envelope, rest []byte, err error) {
	rest = data
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
		return env, nil, ErrFormat
	}
	vb, ok := take(2)
	if !ok {
		return env, nil, ErrFormat
	}
	if v := binary.BigEndian.Uint16(vb); v != Version {
		return env, nil, fmt.Errorf("%w: file has version %d, this build reads %d", ErrVersion, v, Version)
	}
	kb, ok := take(2)
	if !ok {
		return env, nil, ErrFormat
	}
	kindBytes, ok := take(int(binary.BigEndian.Uint16(kb)))
	if !ok {
		return env, nil, ErrFormat
	}
	lb, ok := take(8)
	if !ok {
		return env, nil, ErrFormat
	}
	payloadLen := binary.BigEndian.Uint64(lb)
	sum, ok := take(sha256.Size)
	if !ok {
		return env, nil, ErrFormat
	}
	if payloadLen > uint64(len(rest)) {
		return env, nil, fmt.Errorf("%w: payload length %d, envelope declares %d", ErrFormat, len(rest), payloadLen)
	}
	env = envelope{kind: string(kindBytes), sum: sum, body: rest[:payloadLen]}
	return env, rest[payloadLen:], nil
}

// check verifies that env holds kind and that its payload matches the
// recorded checksum.
func (env envelope) check(kind string) error {
	if env.kind != kind {
		return fmt.Errorf("%w: file holds %q, want %q", ErrKind, env.kind, kind)
	}
	if got := sha256.Sum256(env.body); !bytes.Equal(got[:], env.sum) {
		return ErrChecksum
	}
	return nil
}

// Decode parses an envelope produced by Encode, verifying magic, version,
// length, kind and checksum before gob-decoding the payload into out.
// Bytes after the declared payload are an error. It never panics on
// hostile input: gob decode panics are recovered and returned as errors.
func Decode(data []byte, kind string, out any) error {
	env, rest, err := cut(data)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("%w: payload length %d, envelope declares %d", ErrFormat, len(env.body)+len(rest), len(env.body))
	}
	if err := env.check(kind); err != nil {
		return err
	}
	return decodeBody(env.body, kind, out)
}

// decodeBody gob-decodes a verified envelope payload into out.
func decodeBody(body []byte, kind string, out any) (err error) {
	// gob's decoder can panic on pathological type descriptors; a corrupt
	// payload that happens to pass the checksum check (only possible for
	// a file written by a buggy encoder) must still fail cleanly.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: gob decode panicked: %v", ErrFormat, r)
		}
	}()
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(out); err != nil {
		return fmt.Errorf("checkpoint: decoding %s payload: %w", kind, err)
	}
	return nil
}

// Save atomically writes payload to path: encode, write to a temporary
// file in the same directory, fsync, rename, then fsync the directory so
// the rename itself survives a power cut. A reader (or a crash) never
// observes a partially written checkpoint. The file holds exactly Encode's
// bytes, written as header and body so the payload is not copied into a
// second buffer.
func Save(path, kind string, payload any) error {
	_, err := save(path, kind, payload)
	return err
}

// save is Save reporting the size of the file it wrote.
func save(path, kind string, payload any) (int64, error) {
	body, err := encodeBody(kind, payload)
	if err != nil {
		return 0, err
	}
	head := header(kind, body)
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after successful rename
	for _, part := range [][]byte{head, body} {
		if _, err := tmp.Write(part); err != nil {
			tmp.Close()
			return 0, fmt.Errorf("checkpoint: writing %s: %w", tmpName, err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("checkpoint: syncing %s: %w", tmpName, err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("checkpoint: closing %s: %w", tmpName, err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		return 0, fmt.Errorf("checkpoint: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return 0, fmt.Errorf("checkpoint: syncing directory %s: %w", dir, err)
	}
	return int64(len(head) + len(body)), nil
}

// syncDir fsyncs a directory, making the renames and creations in it
// durable. It does nothing on Windows, which flushes only handles opened
// for writing and cannot open a directory that way.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
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
