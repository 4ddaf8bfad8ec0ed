package explorefault

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/rl/ppo"
	"repro/internal/server"
)

func waitJobState(t *testing.T, s *JobServer, id string, pred func(*JobRecord) bool) *JobRecord {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		j, err := s.Job(id)
		if err != nil {
			t.Fatalf("Job(%s): %v", id, err)
		}
		if pred(j) {
			return j
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached the expected state", id)
	return nil
}

// countEventLines counts lines of the given event kind in a JSONL log.
func countEventLines(t *testing.T, path, kind string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var ev struct {
			Event string `json:"event"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) == nil && ev.Event == kind {
			n++
		}
	}
	return n
}

// TestJobServerRestartDeterminism is the PR's acceptance pin: a gift64
// discovery job interrupted by a daemon shutdown mid-run and finished by
// a restarted daemon produces a result byte-identical to the same job
// run without interruption, and its event log carries the same episodes.
func TestJobServerRestartDeterminism(t *testing.T) {
	spec := JobSpec{
		Type: server.TypeDiscover,
		Name: "gift64-restart",
		Config: json.RawMessage(`{
			"cipher": "gift64", "round": 25, "episodes": 96,
			"samples": 128, "seed": 7, "checkpoint_every": 8
		}`),
	}

	// Reference: one daemon lifetime, uninterrupted.
	refDir := t.TempDir()
	ref, err := NewJobServer(JobServerConfig{DataDir: refDir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	refJob, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	refDone := waitJobState(t, ref, refJob.ID, func(j *JobRecord) bool { return j.State == server.StateDone })
	refEpisodes := countEventLines(t, ref.Files(refJob.ID).Events, "episode")
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	if refEpisodes == 0 {
		t.Fatal("reference run emitted no episode events")
	}

	// Interrupted: stop the daemon once training is demonstrably in
	// flight, then restart on the same data directory.
	dir := t.TempDir()
	s, err := NewJobServer(JobServerConfig{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	events := s.Files(j.ID).Events
	deadline := time.Now().Add(60 * time.Second)
	for countEventLines(t, events, "episode") < 16 {
		if time.Now().After(deadline) {
			t.Fatal("job never made training progress")
		}
		jj, err := s.Job(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		if jj.State.Terminal() {
			t.Fatalf("job finished before it could be interrupted (state %s)", jj.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewJobServer(JobServerConfig{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := waitJobState(t, s2, j.ID, func(j *JobRecord) bool { return j.State == server.StateDone })
	if got.Resumes != 1 {
		t.Fatalf("Resumes = %d, want 1", got.Resumes)
	}
	if !bytes.Equal(got.Result, refDone.Result) {
		t.Fatalf("resumed result differs from uninterrupted run:\n  resumed: %s\n  ref:     %s",
			got.Result, refDone.Result)
	}
	// The episode stream is deterministic too: training emits the same
	// episodes in the same order; the resumed log may replay a suffix of
	// episodes that ran after the last checkpoint, so after dedup it
	// must equal the reference count exactly.
	if n := dedupEpisodes(t, events); n != refEpisodes {
		t.Fatalf("deduped episode events = %d, want %d", n, refEpisodes)
	}
}

// dedupEpisodes counts distinct episode events (by fields, ignoring
// ts/seq) in a JSONL log.
func dedupEpisodes(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var ev struct {
			Event  string          `json:"event"`
			Fields json.RawMessage `json:"fields"`
		}
		if json.Unmarshal(sc.Bytes(), &ev) != nil || ev.Event != "episode" {
			continue
		}
		seen[string(ev.Fields)] = true
	}
	return len(seen)
}

// TestJobServerSweepShardFanOut pins the horizontal-scaling contract at
// the job level: two sweep jobs covering complementary shard ranges,
// merged, equal the single full-range job byte for byte.
func TestJobServerSweepShardFanOut(t *testing.T) {
	dir := t.TempDir()
	s, err := NewJobServer(JobServerConfig{DataDir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	config := json.RawMessage(`{
		"cipher": "gift64", "rounds": [24, 25], "samples": 32, "seed": 11
	}`)
	submit := func(name string, lo, hi int) *JobRecord {
		j, err := s.Submit(JobSpec{
			Type:       server.TypeSweep,
			Name:       name,
			ShardRange: [2]int{lo, hi},
			Config:     config,
		})
		if err != nil {
			t.Fatalf("submit %s: %v", name, err)
		}
		return j
	}
	full := submit("full", 0, 0)
	lo := submit("lo", 0, 1)
	hi := submit("hi", 1, 2)
	for _, j := range []*JobRecord{full, lo, hi} {
		got := waitJobState(t, s, j.ID, func(j *JobRecord) bool { return j.State.Terminal() })
		if got.State != server.StateDone {
			t.Fatalf("job %s state = %s (%s)", j.ID, got.State, got.Error)
		}
	}

	fullAtlas, err := ReadAtlas(s.Files(full.ID).Output)
	if err != nil {
		t.Fatal(err)
	}
	loAtlas, err := ReadAtlas(s.Files(lo.ID).Output)
	if err != nil {
		t.Fatal(err)
	}
	hiAtlas, err := ReadAtlas(s.Files(hi.ID).Output)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeAtlases(hiAtlas, loAtlas)
	if err != nil {
		t.Fatal(err)
	}
	mergedBytes, err := merged.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	fullBytes, err := fullAtlas.MarshalCanonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedBytes, fullBytes) {
		t.Fatalf("merged fan-out atlas differs from full run (%d vs %d bytes)",
			len(mergedBytes), len(fullBytes))
	}
}

// badJobSpecs are specs the runner's Validate rejects, so Submit refuses
// them.
var badJobSpecs = []JobSpec{
	{Type: "discover", Config: json.RawMessage(`{"cipher":"gift64","round":99}`)},
	{Type: "discover", Config: json.RawMessage(`{"cipher":"nope","round":1}`)},
	{Type: "discover", Config: json.RawMessage(`{"cipher":"gift64","round":25,"epsiodes":5}`)},
	{Type: "assess", Config: json.RawMessage(`{"cipher":"gift64","round":25}`)},
	{Type: "sweep", Config: json.RawMessage(`{"cipher":"gift64","key":"zz"}`)},
}

// speckAssessSpec is a small assess job that runs to completion.
var speckAssessSpec = JobSpec{Type: "assess", Config: json.RawMessage(
	`{"cipher":"speck64","round":25,"groups":[0],"samples":128,"seed":3}`)}

// TestJobRunnerValidate pins submission-time validation: typos and
// out-of-range configs are rejected before a worker ever runs.
func TestJobRunnerValidate(t *testing.T) {
	dir := t.TempDir()
	s, err := NewJobServer(JobServerConfig{DataDir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i, spec := range badJobSpecs {
		if _, err := s.Submit(spec); err == nil {
			t.Errorf("bad spec %d accepted: %s", i, spec.Config)
		}
	}
	// Assess works end to end (speck64 included: every registered cipher
	// is available to the daemon).
	j, err := s.Submit(speckAssessSpec)
	if err != nil {
		t.Fatal(err)
	}
	got := waitJobState(t, s, j.ID, func(j *JobRecord) bool { return j.State.Terminal() })
	if got.State != server.StateDone {
		t.Fatalf("assess job state = %s (%s)", got.State, got.Error)
	}
	var res struct {
		T         float64 `json:"t"`
		Threshold float64 `json:"threshold"`
	}
	if err := json.Unmarshal(got.Result, &res); err != nil || res.Threshold == 0 {
		t.Fatalf("assess result = %s (%v)", got.Result, err)
	}
}

// TestProtectedAssessJobBadGroupBitsFails pins that a protected assess job
// with an unsupported group size ends failed with an error instead of
// taking the daemon down, and that the worker goes on to run the next job.
func TestProtectedAssessJobBadGroupBitsFails(t *testing.T) {
	s, err := NewJobServer(JobServerConfig{DataDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, gb := range []int{3, 16} {
		j, err := s.Submit(JobSpec{Type: "assess", Config: json.RawMessage(fmt.Sprintf(
			`{"cipher":"aes128","round":9,"protected":true,"bits":[1,129],"group_bits":%d,"samples":64,"seed":1}`, gb))})
		if err != nil {
			t.Fatal(err)
		}
		got := waitJobState(t, s, j.ID, func(j *JobRecord) bool { return j.State.Terminal() })
		if got.State != server.StateFailed || got.Error == "" {
			t.Fatalf("group_bits %d: job state = %s (%q), want failed with an error", gb, got.State, got.Error)
		}
	}
	j, err := s.Submit(JobSpec{Type: "assess", Config: json.RawMessage(
		`{"cipher":"aes128","round":9,"protected":true,"bits":[1,129],"samples":64,"seed":1}`)})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitJobState(t, s, j.ID, func(j *JobRecord) bool { return j.State.Terminal() }); got.State != server.StateDone {
		t.Fatalf("follow-up job state = %s (%s)", got.State, got.Error)
	}
}

// jobKeys is the config schema of each job type: every key a job
// document accepts, with a valid non-default value.
var jobKeys = map[string]map[string]string{
	server.TypeDiscover: {
		"cipher": `"aes128"`, "key": `"000102030405060708090a0b0c0d0e0f"`, "round": `9`,
		"protected": `true`, "fault_models": `["stuck-at-0","xor"]`, "oracle": `"sifa"`,
		"episodes": `16`, "num_envs": `2`, "samples": `64`, "seed": `9`,
		"linear_reward": `true`, "reward_at_each_step": `true`, "episode_len": `4`,
		"workers": `1`, "no_batch": `true`, "no_oracle_cache": `true`,
		"cache_capacity": `16`, "max_harvest": `3`, "checkpoint_every": `4`,
	},
	server.TypeAssess: {
		"cipher": `"gift64"`, "key": `"000102030405060708090a0b0c0d0e0f"`, "round": `25`,
		"bits": `[1,2]`, "groups": `[3]`, "protected": `true`, "samples": `64`,
		"max_order": `3`, "fixed_order": `1`, "threshold": `4`, "group_bits": `8`,
		"fault_model": `"stuck-at-1"`, "oracle": `"sifa"`, "workers": `1`,
		"no_batch": `true`, "seed": `9`,
	},
	server.TypeSweep: {
		"cipher": `"gift64"`, "key": `"000102030405060708090a0b0c0d0e0f"`, "rounds": `[23]`,
		"gran_bits": `1`, "models": `["stuck-at-0","xor"]`, "oracle": `"sifa"`,
		"samples": `64`, "max_order": `1`, "group_bits": `8`, "threshold": `4`,
		"lag": `1`, "window": `5`, "order2": `true`, "order2_cap": `2`,
		"workers": `1`, "no_batch": `true`, "seed": `9`,
	},
}

// jobBase is the smallest valid document of each job type.
var jobBase = map[string]map[string]string{
	server.TypeDiscover: {"cipher": `"aes128"`, "round": `9`},
	server.TypeAssess:   {"cipher": `"gift64"`, "round": `25`, "bits": `[1]`},
	server.TypeSweep:    {"cipher": `"gift64"`},
}

// jobDoc renders base plus the given key/value pairs as a config document.
func jobDoc(base map[string]string, kv ...string) json.RawMessage {
	doc := map[string]json.RawMessage{}
	for k, v := range base {
		doc[k] = json.RawMessage(v)
	}
	for i := 0; i < len(kv); i += 2 {
		doc[kv[i]] = json.RawMessage(kv[i+1])
	}
	raw, err := json.Marshal(doc)
	if err != nil {
		panic(err)
	}
	return raw
}

// TestJobSchema pins the key set of every job document: each schema key
// is accepted, and library-only knobs and the other job types' keys are
// rejected at submission.
func TestJobSchema(t *testing.T) {
	rejected := map[string]string{
		"checkpoint": `"ck"`, "resume": `true`, "progress": `null`, "agent": `{}`,
		"skip_harvest": `true`, "mode": `"flip-all"`, "shard_lo": `1`, "shard_hi": `2`,
		"metrics": `null`, "events": `null`, "points": `[]`, "ref_seed": `7`,
		"stop_at_threshold": `true`,
	}
	for typ, keys := range jobKeys {
		for k, v := range keys {
			spec := JobSpec{Type: typ, Config: jobDoc(jobBase[typ], k, v)}
			if err := (jobRunner{}).Validate(spec); err != nil {
				t.Errorf("%s: key %q rejected: %v", typ, k, err)
			}
		}
		reject := map[string]string{}
		for k, v := range rejected {
			reject[k] = v
		}
		for other, otherKeys := range jobKeys {
			for k, v := range otherKeys {
				if _, ok := keys[k]; !ok && other != typ {
					reject[k] = v
				}
			}
		}
		for k, v := range reject {
			spec := JobSpec{Type: typ, Config: jobDoc(jobBase[typ], k, v)}
			if err := (jobRunner{}).Validate(spec); err == nil {
				t.Errorf("%s: key %q accepted", typ, k)
			}
		}
	}
}

// TestJobDocumentMatchesLibrary pins that a job document means the
// library config with the same values: tiny jobs that set every accepted
// key to a non-default value return the result document of the direct
// library call.
func TestJobDocumentMatchesLibrary(t *testing.T) {
	key := make([]byte, 16)
	for i := range key {
		key[i] = byte(i)
	}
	dk := jobKeys[server.TypeDiscover]
	discover := DiscoverConfig{
		Cipher: "aes128", Key: key, Round: 9, FaultModels: []FaultModel{StuckAtZero, XorFlip},
		Oracle: OracleSIFA, Episodes: 16, NumEnvs: 2, Samples: 64, Seed: 9,
		LinearReward: true, RewardAtEachStep: true, EpisodeLen: 4, Workers: 1, NoBatch: true,
		NoOracleCache: true, CacheCapacity: 16, MaxHarvest: 3, CheckpointEvery: 4,
	}
	protected := discover
	protected.Protected, protected.Oracle = true, OracleWelch

	ak := jobKeys[server.TypeAssess]
	assess := AssessConfig{
		Cipher: "gift64", Key: key, Round: 25, Samples: 64, MaxOrder: 3, FixedOrder: 1,
		Threshold: 4, GroupBits: 8, FaultModel: StuckAtOne, Oracle: OracleSIFA, Workers: 1,
		NoBatch: true, Seed: 9,
	}
	assessProt := assess
	assessProt.FaultModel, assessProt.Oracle, assessProt.GroupBits, assessProt.MaxOrder = RandomNibble, OracleWelch, 2, 1

	sk := jobKeys[server.TypeSweep]
	sweepCfg := SweepConfig{
		Cipher: "gift64", Key: key, Rounds: []int{23}, GranBits: 1,
		Models: []FaultModel{StuckAtZero, XorFlip}, Oracle: OracleSIFA, Samples: 64,
		MaxOrder: 1, GroupBits: 8, Threshold: 4, Lag: 1, Window: 5, Order2: true,
		Order2Cap: 2, ShardLo: 0, ShardHi: 1, Workers: 1, NoBatch: true, Seed: 9,
	}

	cases := []struct {
		name string
		spec JobSpec
		want func() (map[string]any, error)
	}{
		{"discover", JobSpec{Type: server.TypeDiscover, Config: jobDoc(dk, "protected", `false`)},
			func() (map[string]any, error) { return discoverResultDoc(discover) }},
		{"discover-protected", JobSpec{Type: server.TypeDiscover, Config: jobDoc(dk, "oracle", `"welch"`)},
			func() (map[string]any, error) { return discoverResultDoc(protected) }},
		{"assess", JobSpec{Type: server.TypeAssess, Config: jobDoc(ak, "protected", `false`)},
			func() (map[string]any, error) {
				return assessResultDoc(assess, PatternFromBits(64, 1, 2), AssessContext)
			}},
		{"assess-protected", JobSpec{Type: server.TypeAssess, Config: jobDoc(ak, "bits", `[]`,
			"groups", `[1,17]`, "fault_model", `"random-nibble"`, "oracle", `"welch"`, "group_bits", `2`,
			"max_order", `1`)},
			func() (map[string]any, error) {
				return assessResultDoc(assessProt, PatternFromGroups(128, 4, 1, 17), AssessProtectedContext)
			}},
		{"sweep", JobSpec{Type: server.TypeSweep, ShardRange: [2]int{0, 1}, Config: jobDoc(sk)},
			func() (map[string]any, error) { return sweepResultDoc(sweepCfg, "atlas.json") }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := (jobRunner{}).Validate(tc.spec); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			files := server.Files{
				Checkpoint: filepath.Join(dir, "ckpt"),
				Output:     filepath.Join(dir, "atlas.json"),
			}
			raw, err := (jobRunner{}).Run(context.Background(), tc.spec, files, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			var got map[string]any
			if err := json.Unmarshal(raw, &got); err != nil {
				t.Fatal(err)
			}
			want, err := tc.want()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("job result differs from the library call:\n  job:     %v\n  library: %v", got, want)
			}
		})
	}
}

// normalizeDoc returns v as decoding its JSON yields it.
func normalizeDoc(v any) (map[string]any, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	err = json.Unmarshal(raw, &doc)
	return doc, err
}

// discoverResultDoc runs cfg through DiscoverContext and shapes the
// result as a discover job's result document.
func discoverResultDoc(cfg DiscoverConfig) (map[string]any, error) {
	res, err := DiscoverContext(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	models := []any{}
	for _, m := range res.Models {
		doc := map[string]any{"class": m.Class.String(), "fault": m.Fault, "bits": m.Pattern.Bits(), "t": m.T}
		if len(m.Groups) > 0 {
			doc["groups"] = m.Groups
		}
		if m.GroupBits != 0 {
			doc["group_bits"] = m.GroupBits
		}
		models = append(models, doc)
	}
	return normalizeDoc(map[string]any{
		"cipher": cfg.Cipher, "round": cfg.Round, "bits": res.Converged.Bits(),
		"t": res.ConvergedT, "leaky": res.ConvergedLeaky, "fault": res.ConvergedModel,
		"episodes": res.Episodes, "models": models,
	})
}

// assessResultDoc runs one assessment and shapes it as an assess job's
// result document.
func assessResultDoc(cfg AssessConfig, p Pattern, assess func(context.Context, Pattern, AssessConfig) (Assessment, error)) (map[string]any, error) {
	a, err := assess(context.Background(), p, cfg)
	if err != nil {
		return nil, err
	}
	return normalizeDoc(map[string]any{
		"cipher": cfg.Cipher, "round": cfg.Round, "t": a.T, "leaky": a.Leaky,
		"threshold": a.Threshold, "order": a.Order, "point": a.Point,
	})
}

// sweepResultDoc runs cfg through Sweep and shapes the atlas as a sweep
// job's result document.
func sweepResultDoc(cfg SweepConfig, atlasFile string) (map[string]any, error) {
	atlas, err := Sweep(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	canon, err := atlas.MarshalCanonical()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(canon)
	return normalizeDoc(map[string]any{
		"cipher": cfg.Cipher, "cells": atlas.Summary.Cells, "exploitable": atlas.Summary.Exploitable,
		"max_t": atlas.Summary.MaxT, "shard_range": [2]int{cfg.ShardLo, cfg.ShardHi},
		"sha256": hex.EncodeToString(sum[:]), "atlas": atlasFile,
	})
}

// TestBadJobValuesFail pins that job values no engine can run with end
// the job failed, with an error naming the value, instead of panicking
// in a worker and taking the daemon down; the worker then runs the next
// job.
func TestBadJobValuesFail(t *testing.T) {
	s, err := NewJobServer(JobServerConfig{DataDir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, tc := range badJobValues {
		j, err := s.Submit(JobSpec{Type: tc.typ, Config: json.RawMessage(tc.config)})
		if err != nil {
			t.Fatalf("%s %s: %v", tc.typ, tc.config, err)
		}
		got := waitJobState(t, s, j.ID, func(j *JobRecord) bool { return j.State.Terminal() })
		if got.State != server.StateFailed || !strings.Contains(got.Error, tc.want) {
			t.Errorf("%s %s: state %s (%q), want failed naming %q", tc.typ, tc.config, got.State, got.Error, tc.want)
		}
	}
	j, err := s.Submit(JobSpec{Type: "assess", Config: json.RawMessage(
		`{"cipher":"gift64","round":25,"bits":[1],"samples":64}`)})
	if err != nil {
		t.Fatal(err)
	}
	if got := waitJobState(t, s, j.ID, func(j *JobRecord) bool { return j.State.Terminal() }); got.State != server.StateDone {
		t.Fatalf("follow-up job state = %s (%s)", got.State, got.Error)
	}
}

// badJobValues are job configs that Validate accepts and the run rejects,
// each with the text its error must contain.
var badJobValues = []struct{ typ, config, want string }{
	{"assess", `{"cipher":"gift64","round":25,"bits":[64]}`, "bit 64 "},
	{"assess", `{"cipher":"gift64","round":25,"bits":[-1]}`, "bit -1 "},
	{"assess", `{"cipher":"gift64","round":25,"groups":[16]}`, "group 16 "},
	{"assess", `{"cipher":"gift64","round":25,"groups":[-1]}`, "group -1 "},
	{"assess", `{"cipher":"gift64","round":25,"protected":true,"bits":[128]}`, "bit 128 "},
	{"assess", `{"cipher":"gift64","round":25,"bits":[1],"max_order":-1}`, "max order -1 "},
	{"assess", `{"cipher":"gift64","round":25,"protected":true,"bits":[1,65],"max_order":-1}`, "max order -1 "},
	{"assess", `{"cipher":"gift64","round":25,"protected":true,"bits":[1,65],"samples":1}`, "samples 1 "},
	{"assess", `{"cipher":"gift64","round":25,"protected":true,"bits":[1,65],"samples":-3}`, "samples -3 "},
	{"sweep", `{"cipher":"gift64","rounds":[25],"max_order":-1}`, "max order -1 "},
	{"assess", `{"cipher":"gift64","round":25,"bits":[1],"max_order":1099511627776}`, "max order 1099511627776 "},
	{"assess", `{"cipher":"gift64","round":25,"bits":[1],"max_order":17}`, "max order 17 "},
	{"assess", `{"cipher":"gift64","round":25,"protected":true,"bits":[1,65],"max_order":17}`, "max order 17 "},
	{"assess", `{"cipher":"gift64","round":25,"bits":[1],"fixed_order":200}`, "fixed order 200 "},
	{"assess", `{"cipher":"gift64","round":25,"bits":[1],"fixed_order":-3}`, "fixed order -3 "},
	{"sweep", `{"cipher":"gift64","rounds":[25],"max_order":1099511627776}`, "max order 1099511627776 "},
	{"discover", `{"cipher":"gift64","round":25,"episodes":8,"num_envs":-1}`, "NumEnvs -1 "},
	{"discover", `{"cipher":"gift64","round":25,"episodes":8,"samples":1}`, "samples 1 "},
	{"discover", `{"cipher":"gift64","round":25,"episodes":8,"samples":-4}`, "samples -4 "},
	{"discover", `{"cipher":"gift64","round":25,"episodes":-3}`, "Episodes -3 "},
	{"discover", `{"cipher":"gift64","round":25,"episodes":8,"episode_len":-5}`, "EpisodeLen -5 "},
	{"discover", `{"cipher":"gift64","round":25,"episodes":8,"max_harvest":-1}`, "MaxHarvest -1 "},
	{"assess", `{"cipher":"gift64","round":25,"bits":[1],"samples":2097153}`, "samples 2097153 "},
	{"assess", `{"cipher":"gift64","round":25,"bits":[1],"samples":1099511627776}`, "samples 1099511627776 "},
	{"assess", `{"cipher":"gift64","round":25,"protected":true,"bits":[1,65],"samples":1099511627776}`, "samples 1099511627776 "},
	{"discover", `{"cipher":"gift64","round":25,"episodes":8,"samples":1099511627776}`, "samples 1099511627776 "},
	{"sweep", `{"cipher":"gift64","rounds":[25],"samples":1099511627776}`, "samples 1099511627776 "},
}

// FuzzJobSpec feeds arbitrary POST /jobs bodies through the submit path's
// decoding (server.DecodeSpec, which handleSubmit runs) and the runner's
// Validate, which must return nil or an error and never panic. An input
// is never submitted: an accepted job would run. The seeds are the four
// job kinds of perfbench's jobserver mix and the documents of
// TestJobRunnerValidate and TestBadJobValuesFail.
func FuzzJobSpec(f *testing.F) {
	body := func(spec JobSpec) []byte {
		b, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add([]byte(`{"type":"assess","tenant":"bench","name":"assess-welch","config":{"cipher":"gift64","round":24,"groups":[5],"samples":256,"workers":1,"seed":12345}}`))
	f.Add([]byte(`{"type":"assess","tenant":"bench","name":"assess-sifa","config":{"cipher":"speck64","round":22,"groups":[3],"samples":256,"workers":1,"seed":12345,"oracle":"sifa","fault_model":"stuck-at-0"}}`))
	f.Add([]byte(`{"type":"assess","tenant":"bench","name":"assess-protected","config":{"cipher":"aes128","round":8,"protected":true,"bits":[7,135],"samples":256,"workers":1,"seed":12345}}`))
	f.Add([]byte(`{"type":"sweep","tenant":"bench","name":"sweep","shard_range":[0,1],"config":{"cipher":"gift64","rounds":[24],"samples":128,"workers":1,"seed":12345}}`))
	for _, spec := range append(badJobSpecs, speckAssessSpec) {
		f.Add(body(spec))
	}
	for _, tc := range badJobValues {
		f.Add(body(JobSpec{Type: tc.typ, Config: json.RawMessage(tc.config)}))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		spec, err := server.DecodeSpec(bytes.NewReader(doc))
		if err != nil {
			return
		}
		_ = jobRunner{}.Validate(spec) // either result is fine; a panic fails
	})
}

// TestEntryPointsRejectBadValues pins the library side of
// TestBadJobValuesFail: the entry points return errors for the same
// values.
func TestEntryPointsRejectBadValues(t *testing.T) {
	ctx := context.Background()
	assess := func(f func(context.Context, Pattern, AssessConfig) (Assessment, error), p Pattern, cfg AssessConfig) error {
		cfg.Cipher, cfg.Round = "gift64", 25
		_, err := f(ctx, p, cfg)
		return err
	}
	discover := func(cfg DiscoverConfig) error {
		cfg.Cipher, cfg.Round, cfg.Episodes = "gift64", 25, 8
		_, err := DiscoverContext(ctx, cfg)
		return err
	}
	episodes := func(n int) error {
		_, err := DiscoverContext(ctx, DiscoverConfig{Cipher: "gift64", Round: 25, Episodes: n})
		return err
	}
	sweep := func(maxOrder int) error {
		_, err := Sweep(ctx, SweepConfig{Cipher: "gift64", Rounds: []int{25}, MaxOrder: maxOrder})
		return err
	}
	sweepSamples := func(samples int) error {
		_, err := Sweep(ctx, SweepConfig{Cipher: "gift64", Rounds: []int{25}, Samples: samples})
		return err
	}
	one, both := PatternFromBits(64, 1), PatternFromBits(128, 1, 65)
	verify := func(p Pattern, cfg VerifyConfig) error {
		_, err := VerifyKeyRecovery(p, cfg)
		return err
	}
	propagate := func(samples int) error {
		_, err := Propagate(one, "gift64", nil, 3, samples, 1)
		return err
	}
	for name, err := range map[string]error{
		"assess max order -1":    assess(AssessContext, one, AssessConfig{MaxOrder: -1}),
		"protected max order -1": assess(AssessProtectedContext, both, AssessConfig{MaxOrder: -1}),
		"protected samples 1":    assess(AssessProtectedContext, both, AssessConfig{Samples: 1}),
		"protected samples -3":   assess(AssessProtectedContext, both, AssessConfig{Samples: -3}),
		"discover num envs -1":   discover(DiscoverConfig{NumEnvs: -1}),
		"discover samples 1":     discover(DiscoverConfig{Samples: 1}),
		"discover samples -4":    discover(DiscoverConfig{Samples: -4}),
		"discover minibatch -1":  discover(DiscoverConfig{Agent: ppo.Config{MinibatchSize: -1}}),
		"discover epochs -1":     discover(DiscoverConfig{Agent: ppo.Config{Epochs: -1}}),
		"discover hidden -3":     discover(DiscoverConfig{Agent: ppo.Config{Hidden: []int{64, -3}}}),
		"discover hidden 0":      discover(DiscoverConfig{Agent: ppo.Config{Hidden: []int{0}}}),
		"sweep max order -1":     sweep(-1),
		"sweep max order 17":     sweep(17),
		"assess max order 2^40":  assess(AssessContext, one, AssessConfig{MaxOrder: 1 << 40}),
		"assess max order 200":   assess(AssessContext, one, AssessConfig{MaxOrder: 200}),
		"assess fixed order 200": assess(AssessContext, one, AssessConfig{FixedOrder: 200}),
		"assess fixed order 17":  assess(AssessContext, one, AssessConfig{FixedOrder: 17}),
		"assess fixed order -3":  assess(AssessContext, one, AssessConfig{FixedOrder: -3}),
		"protected max order 17": assess(AssessProtectedContext, both, AssessConfig{MaxOrder: 17}),
		"gift64 dfa pairs -1":    verify(one, VerifyConfig{Cipher: "gift64", Pairs: -1}),
		"gift64 dfa round 29":    verify(one, VerifyConfig{Cipher: "gift64", Round: 29}),
		"gift64 dfa round -3":    verify(one, VerifyConfig{Cipher: "gift64", Round: -3}),
		"gift128 dfa pairs -1":   verify(both, VerifyConfig{Cipher: "gift128", Pairs: -1}),
		"gift128 dfa round 41":   verify(both, VerifyConfig{Cipher: "gift128", Round: 41}),
		"aes128 dfa round 5":     verify(both, VerifyConfig{Cipher: "aes128", Round: 5}),
		"aes128 dfa pairs -4":    verify(both, VerifyConfig{Cipher: "aes128", Pairs: -4}),
		"propagate samples -5":   propagate(-5),
		"propagate samples 1":    propagate(1),
		"discover Episodes -3":   episodes(-3),
		"discover EpisodeLen -5": discover(DiscoverConfig{EpisodeLen: -5}),
		"discover MaxHarvest -1": discover(DiscoverConfig{MaxHarvest: -1}),
		"assess samples 2^21+1":  assess(AssessContext, one, AssessConfig{Samples: 1<<21 + 1}),
		"assess samples 2^40":    assess(AssessContext, one, AssessConfig{Samples: 1 << 40}),
		"protected samples 2^40": assess(AssessProtectedContext, both, AssessConfig{Samples: 1 << 40}),
		"discover samples 2^40":  discover(DiscoverConfig{Samples: 1 << 40}),
		"sweep samples 2^40":     sweepSamples(1 << 40),
	} {
		if err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}
