package checkpoint

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"sort"
	"sync"
)

// stagesPayload is the snapshot form of a Stages store: the canonical
// key identifying the run configuration, plus one gob-encoded blob per
// finished stage. Stage values are encoded individually so the store can
// hold heterogeneous types (an Assessment here, a propagation profile
// there, a sweep shard result elsewhere) without a registry.
type stagesPayload struct {
	Key    string
	Stages map[string][]byte
}

// compactFloor is the slack, in bytes, a store file may carry beyond
// twice its live bytes before a write rewrites it whole. It keeps a small
// store whose few records change often from rewriting on most writes.
const compactFloor = 64 << 10

// Tags of a delta record: the value replaces the stage's result, or the
// stage is removed.
const (
	deltaPut    byte = 0
	deltaDelete byte = 1
)

// Stages is a keyed store of per-stage results backing resumable
// multi-stage runs (faultsim's order-1/order-2/full/propagation stages,
// sweep cell shards, the daemon's job table). A Stages with an empty path
// is purely in-memory: same API, nothing written — callers don't need a
// "checkpointing enabled?" branch at every stage.
//
// A file-backed store is an append log in one file. The file starts with
// a snapshot envelope, exactly what Save writes for the whole store. Each
// Put or Delete then appends one delta envelope of kind "<kind>/delta"
// and fsyncs, so a write costs its record rather than the store, and an
// interrupt costs at most the in-flight stage. When superseded records
// would outweigh live ones (the file would exceed twice the live bytes
// plus compactFloor), the write rewrites the whole store through Save
// instead. OpenStages replays the deltas in order and stops at the first
// one that is torn, fails its checksum or holds another kind, so a crash
// mid-append reopens to the state before that append. DroppedBytes
// reports the discarded tail, and the next write rewrites the file
// rather than append after it.
//
// The key is the canonical argument string of the run. Opening a path
// whose snapshot was written under a different key silently starts fresh
// (the old results belong to a different run and must not be
// misapplied), and the first write replaces the file; a corrupt or
// wrong-kind snapshot is an error.
//
// All methods are safe for concurrent use, so parallel workers can Put
// independent stages; writes are serialized internally.
type Stages struct {
	mu   sync.Mutex
	path string
	kind string
	data stagesPayload
	// size is the length of the file's valid prefix: the snapshot plus
	// every delta replayed at open or appended since.
	size int64
	// live is what the stored stages would take as one delta each, the
	// measure compaction weighs size against.
	live int64
	// rewrite makes the next write replace the whole file: the file is
	// missing or foreign, replay dropped a tail, or a write failed.
	rewrite bool
	dropped int64
}

// OpenStages opens (or initializes) the stage store at path under the
// given envelope kind and run key. An empty path yields an in-memory
// store. A missing file, or an existing file written for a different
// key, yields an empty store; a malformed snapshot is an error.
func OpenStages(path, kind, key string) (*Stages, error) {
	s := newStages(path, kind, key)
	if path == "" {
		return s, nil
	}
	data, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// No checkpoint yet: first run.
		return s, nil
	case err != nil:
		return nil, err
	}
	if err := s.replay(data); err != nil {
		return nil, err
	}
	return s, nil
}

// newStages returns an empty store whose first write creates its file.
func newStages(path, kind, key string) *Stages {
	return &Stages{
		path:    path,
		kind:    kind,
		data:    stagesPayload{Key: key, Stages: map[string][]byte{}},
		rewrite: true,
	}
}

// replay loads a store file into s: the snapshot, then each well-formed
// delta in order. Replayed values alias data, which is at most twice the
// live bytes plus compactFloor and is released once no replayed value is
// still stored.
func (s *Stages) replay(data []byte) error {
	snap, rest, err := cut(data)
	if err != nil {
		return err
	}
	if err := snap.check(s.kind); err != nil {
		return err
	}
	var prior stagesPayload
	if err := decodeBody(snap.body, s.kind, &prior); err != nil {
		return err
	}
	if prior.Key != s.data.Key {
		return nil
	}
	if prior.Stages != nil {
		s.data.Stages = prior.Stages
	}
	dk := deltaKind(s.kind)
	for len(rest) > 0 {
		env, next, err := cut(rest)
		if err != nil || env.check(dk) != nil {
			break
		}
		name, val, tag, ok := parseDelta(env.body)
		if !ok {
			break
		}
		if tag == deltaDelete {
			delete(s.data.Stages, name)
		} else {
			s.data.Stages[name] = val
		}
		rest = next
	}
	for name, val := range s.data.Stages {
		s.live += deltaSize(s.kind, name, val)
	}
	s.size = int64(len(data) - len(rest))
	s.dropped = int64(len(rest))
	s.rewrite = s.dropped > 0
	return nil
}

// deltaKind is the envelope kind of a store's delta records.
func deltaKind(kind string) string { return kind + "/delta" }

// encodeDelta builds the delta envelope for one change. Its body is a
// fixed binary layout: the uvarint length of the stage name, the name,
// a tag byte, then the stage's gob blob (empty for a delete).
func encodeDelta(kind, name string, val []byte, tag byte) []byte {
	body := make([]byte, 0, binary.MaxVarintLen64+len(name)+1+len(val))
	body = binary.AppendUvarint(body, uint64(len(name)))
	body = append(body, name...)
	body = append(body, tag)
	body = append(body, val...)
	return append(header(deltaKind(kind), body), body...)
}

// parseDelta splits a delta body. It accepts exactly the bodies
// encodeDelta writes: a minimal name length, a known tag, and no value
// after a delete.
func parseDelta(body []byte) (name string, val []byte, tag byte, ok bool) {
	n, k := binary.Uvarint(body)
	if k <= 0 || k != uvarintLen(n) || n >= uint64(len(body)-k) {
		return "", nil, 0, false
	}
	rest := body[k:]
	name, tag, val = string(rest[:n]), rest[n], rest[n+1:]
	if tag != deltaPut && (tag != deltaDelete || len(val) != 0) {
		return "", nil, 0, false
	}
	return name, val, tag, true
}

// deltaSize is the length of the delta that puts val under name.
func deltaSize(kind, name string, val []byte) int64 {
	return int64(headerSize(deltaKind(kind)) + uvarintLen(uint64(len(name))) + len(name) + 1 + len(val))
}

// uvarintLen is the length of n's minimal uvarint encoding.
func uvarintLen(n uint64) int {
	var b [binary.MaxVarintLen64]byte
	return binary.PutUvarint(b[:], n)
}

// Done reports whether stage has a stored result, decoding it into out
// when out is non-nil. A stored blob that no longer decodes (the value's
// type changed across builds) reports false, so the stage reruns instead
// of resuming wrong.
func (s *Stages) Done(stage string, out any) bool {
	s.mu.Lock()
	raw, ok := s.data.Stages[stage]
	s.mu.Unlock()
	if !ok {
		return false
	}
	if out == nil {
		return true
	}
	return gob.NewDecoder(bytes.NewReader(raw)).Decode(out) == nil
}

// Put records val as stage's result and, for a file-backed store,
// persists it durably.
func (s *Stages) Put(stage string, val any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(val); err != nil {
		return fmt.Errorf("checkpoint: encoding stage %q: %w", stage, err)
	}
	raw := buf.Bytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.data.Stages[stage]; ok {
		s.live -= deltaSize(s.kind, stage, old)
	}
	s.data.Stages[stage] = raw
	s.live += deltaSize(s.kind, stage, raw)
	return s.persist(stage, raw, deltaPut)
}

// Delete removes stage's stored result and, for a file-backed store,
// persists the removal durably. Deleting an absent stage is a no-op.
// Job-style stores (one stage per record) use it to purge entries whose
// lifetime ended.
func (s *Stages) Delete(stage string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	old, ok := s.data.Stages[stage]
	if !ok {
		return nil
	}
	delete(s.data.Stages, stage)
	s.live -= deltaSize(s.kind, stage, old)
	return s.persist(stage, nil, deltaDelete)
}

// persist writes one change to a file-backed store: it appends the
// change's delta and fsyncs, or rewrites the whole store through Save
// when a rewrite is pending or the append would take the file past
// twice its live bytes plus compactFloor. A failed append leaves the
// file's end unknown, so the next write rewrites. The caller holds s.mu.
func (s *Stages) persist(stage string, val []byte, tag byte) error {
	if s.path == "" {
		return nil
	}
	if s.rewrite || s.size+deltaSize(s.kind, stage, val) > 2*s.live+compactFloor {
		n, err := save(s.path, s.kind, &s.data)
		if err != nil {
			s.rewrite = true
			return err
		}
		s.size, s.rewrite = n, false
		return nil
	}
	rec := encodeDelta(s.kind, stage, val, tag)
	if err := appendSync(s.path, rec); err != nil {
		s.rewrite = true
		return fmt.Errorf("checkpoint: %w", err)
	}
	s.size += int64(len(rec))
	return nil
}

// appendSync appends rec to the existing file at path with one write
// and fsyncs it.
func appendSync(path string, rec []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	_, err = f.Write(rec)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// DroppedBytes reports how many bytes at the end of the file OpenStages
// discarded: the first torn, corrupt or foreign delta and everything
// after it. The store holds the state before them.
func (s *Stages) DroppedBytes() int64 { return s.dropped }

// Len reports the number of stored stages.
func (s *Stages) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.data.Stages)
}

// Names returns the stored stage names in sorted order (for diagnostics
// and tests).
func (s *Stages) Names() []string {
	s.mu.Lock()
	names := make([]string, 0, len(s.data.Stages))
	for name := range s.data.Stages {
		names = append(names, name)
	}
	s.mu.Unlock()
	sort.Strings(names)
	return names
}

// Path reports the backing file path ("" for in-memory stores).
func (s *Stages) Path() string { return s.path }
