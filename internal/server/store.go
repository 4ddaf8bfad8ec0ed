package server

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/checkpoint"
)

// Job records are persisted through checkpoint.Stages: one stage per
// job plus a sequence counter, in one file that starts with a
// checksummed snapshot and grows by one fsynced delta record per change.
// Reusing the checkpoint store — rather than a bespoke database — means
// job durability inherits the properties the engine checkpoints already
// pin in tests: a torn write reopens to the state before it, a foreign
// or damaged snapshot is a clean error, and the whole daemon state lives
// in one copyable directory.
const (
	storeKind = "explorefaultd-jobs"
	storeKey  = "jobs/v1"
	storeFile = "jobs.ckpt"
	seqStage  = "seq"
	jobPrefix = "job-"
)

// store is the durable job table.
type store struct {
	stages *checkpoint.Stages
}

// openStore opens (or initializes) the job table under dir.
func openStore(dir string) (*store, error) {
	st, err := checkpoint.OpenStages(filepath.Join(dir, storeFile), storeKind, storeKey)
	if err != nil {
		return nil, fmt.Errorf("server: opening job store: %w", err)
	}
	return &store{stages: st}, nil
}

// putJob persists one job record.
func (st *store) putJob(j *Job) error {
	return st.stages.Put(jobPrefix+j.ID, j)
}

// deleteJob removes one job record.
func (st *store) deleteJob(id string) error {
	return st.stages.Delete(jobPrefix + id)
}

// putSeq persists the ID counter so purged jobs never lead to ID reuse
// (their on-disk event logs and checkpoints must stay theirs). Submit
// does not write it: a stored record's own sequence already keeps its ID
// (see seqAfterRecords), so only a purge that leaves no higher record
// needs it (Server.persistSeqPast).
func (st *store) putSeq(seq uint64) error {
	return st.stages.Put(seqStage, seq)
}

// load returns every stored job sorted by submission sequence, plus the
// persisted ID counter. A record that no longer decodes is skipped (it
// belongs to an older build) rather than wedging the daemon.
func (st *store) load() ([]*Job, uint64) {
	var seq uint64
	st.stages.Done(seqStage, &seq)
	var jobs []*Job
	for _, name := range st.stages.Names() {
		if !strings.HasPrefix(name, jobPrefix) {
			continue
		}
		var j Job
		if !st.stages.Done(name, &j) {
			continue
		}
		jobs = append(jobs, &j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].Seq < jobs[k].Seq })
	return jobs, seq
}

// seqAfterRecords returns one past the highest sequence among the stored
// job records, read from the job ID in each record's name, so a record
// that no longer decodes keeps its ID too.
func (st *store) seqAfterRecords() uint64 {
	var next uint64
	for _, name := range st.stages.Names() {
		id, ok := strings.CutPrefix(name, jobPrefix)
		if !ok {
			continue
		}
		if seq, err := strconv.ParseUint(strings.TrimPrefix(id, "j-"), 10, 64); err == nil && seq >= next {
			next = seq + 1
		}
	}
	return next
}
