package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"sync"
	"time"

	explorefault "repro"
	"repro/internal/obs/trace"
	"repro/internal/prng"
)

// The jobserver workload: an in-process daemon configured as
// cmd/explorefaultd configures it, driven over loopback HTTP by a closed
// loop. Per-job compute is milliseconds, so the durable job store and the
// scheduler around it dominate; it is the only workload that runs the
// server layer, the SIFA oracle and the countermeasure oracle.
const (
	// storedJobs is how many finished jobs the data dir holds while the
	// loop runs; each caller purges one old job per job it completes.
	storedJobs = 200
	// jobCallers is the closed loop's concurrency: no more callers than
	// the two cores the benchmark is sized for.
	jobCallers = 2
	// pollInterval is the mean pause before each GET /jobs/{id} poll. The
	// pause is drawn uniformly from [0, 2*pollInterval) so that polls do
	// not fall on a fixed grid after the submit and round latencies to it.
	pollInterval = 4 * time.Millisecond
	// jobsPerScrape is the cadence of the /stats and /metrics reads that
	// run beside the callers (they alternate). Counting it in completed
	// jobs rather than seconds keeps the scrapes' share of the load the
	// same however fast the host runs the loop.
	jobsPerScrape = 4
	// variantsPerKind is how many distinct specs of each job kind the
	// seeded mix draws from; each has a reference result.
	variantsPerKind = 6
)

// jobKinds are the job kinds of the mix, in the order of their per-layer
// run-time metrics.
var jobKinds = []string{"assess-welch", "assess-sifa", "assess-protected", "sweep"}

// mixJob is one spec of the mix with the result it must produce.
type mixJob struct {
	kind string
	body []byte         // POST /jobs request
	want map[string]any // expected result, computed through the facade
}

// buildMix draws the mix's specs from the seed and computes each one's
// reference result by running the same spec directly through the facade.
func buildMix(seed uint64) ([]mixJob, error) {
	rng := prng.New(seed ^ 0x10b5)
	var mix []mixJob
	for v := 0; v < variantsPerKind; v++ {
		// The seed picks fault positions and campaign seeds; ciphers and
		// rounds are fixed so that a job's cost does not depend on it.
		cipher, round := "gift64", 24
		if v%2 == 1 {
			cipher, round = "speck64", 22
		}
		info, err := explorefault.LookupCipher(cipher)
		if err != nil {
			return nil, err
		}
		group := rng.Intn(8 * info.BlockBytes / info.GroupBits)
		jobSeed := rng.Uint64() >> 12
		welch := map[string]any{"cipher": cipher, "round": round, "groups": []int{group},
			"samples": 256, "workers": 1, "seed": jobSeed}
		sifa := map[string]any{"cipher": cipher, "round": round, "groups": []int{group},
			"samples": 256, "workers": 1, "seed": jobSeed, "oracle": "sifa", "fault_model": "stuck-at-0"}
		bit := rng.Intn(128)
		protected := map[string]any{"cipher": "aes128", "round": 8, "protected": true,
			"bits": []int{bit, bit + 128}, "samples": 256, "workers": 1, "seed": jobSeed}
		sweep := map[string]any{"cipher": "gift64", "rounds": []int{24},
			"samples": 128, "workers": 1, "seed": jobSeed}

		for _, k := range []struct {
			kind  string
			typ   string
			cfg   map[string]any
			shard [2]int
		}{
			{"assess-welch", "assess", welch, [2]int{}},
			{"assess-sifa", "assess", sifa, [2]int{}},
			{"assess-protected", "assess", protected, [2]int{}},
			{"sweep", "sweep", sweep, [2]int{0, 1}},
		} {
			j, err := newMixJob(k.kind, k.typ, k.cfg, k.shard)
			if err != nil {
				return nil, fmt.Errorf("%s reference: %w", k.kind, err)
			}
			mix = append(mix, j)
		}
	}
	return mix, nil
}

func newMixJob(kind, typ string, cfg map[string]any, shard [2]int) (mixJob, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return mixJob{}, err
	}
	spec := map[string]any{"type": typ, "tenant": "bench", "name": kind, "config": json.RawMessage(raw)}
	if shard != [2]int{} {
		spec["shard_range"] = shard
	}
	body, err := json.Marshal(spec)
	if err != nil {
		return mixJob{}, err
	}
	var want map[string]any
	if typ == "sweep" {
		want, err = referenceSweep(raw, shard)
	} else {
		want, err = referenceAssess(raw)
	}
	return mixJob{kind: kind, body: body, want: want}, err
}

// jobConfig mirrors the fields of the job configs the mix uses.
type jobConfig struct {
	Cipher     string                  `json:"cipher"`
	Round      int                     `json:"round"`
	Rounds     []int                   `json:"rounds"`
	Bits       []int                   `json:"bits"`
	Groups     []int                   `json:"groups"`
	Protected  bool                    `json:"protected"`
	Samples    int                     `json:"samples"`
	Workers    int                     `json:"workers"`
	Seed       uint64                  `json:"seed"`
	Oracle     explorefault.OracleKind `json:"oracle"`
	FaultModel explorefault.FaultModel `json:"fault_model"`
}

// referenceAssess runs an assess spec through AssessContext (or
// AssessProtectedContext) and shapes the result as the job API does.
func referenceAssess(raw []byte) (map[string]any, error) {
	var c jobConfig
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, err
	}
	info, err := explorefault.LookupCipher(c.Cipher)
	if err != nil {
		return nil, err
	}
	stateBits := 8 * info.BlockBytes
	if c.Protected {
		stateBits *= 2
	}
	pattern := explorefault.PatternFromBits(stateBits, c.Bits...)
	if len(c.Groups) > 0 {
		pattern = explorefault.PatternFromGroups(stateBits, info.GroupBits, c.Groups...)
	}
	cfg := explorefault.AssessConfig{Cipher: c.Cipher, Round: c.Round, Samples: c.Samples,
		Workers: c.Workers, Seed: c.Seed, Oracle: c.Oracle, FaultModel: c.FaultModel}
	assess := explorefault.AssessContext
	if c.Protected {
		assess = explorefault.AssessProtectedContext
	}
	a, err := assess(context.Background(), pattern, cfg)
	if err != nil {
		return nil, err
	}
	return roundTrip(map[string]any{"cipher": c.Cipher, "round": c.Round, "t": a.T, "leaky": a.Leaky,
		"threshold": a.Threshold, "order": a.Order, "point": a.Point})
}

// referenceSweep runs a sweep spec through Sweep and shapes the result as
// the job API does, less the job-specific atlas file name.
func referenceSweep(raw []byte, shard [2]int) (map[string]any, error) {
	var c jobConfig
	if err := json.Unmarshal(raw, &c); err != nil {
		return nil, err
	}
	atlas, err := explorefault.Sweep(context.Background(), explorefault.SweepConfig{Cipher: c.Cipher,
		Rounds: c.Rounds, Samples: c.Samples, Workers: c.Workers, Seed: c.Seed,
		ShardLo: shard[0], ShardHi: shard[1]})
	if err != nil {
		return nil, err
	}
	canon, err := atlas.MarshalCanonical()
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(canon)
	return roundTrip(map[string]any{"cipher": c.Cipher, "cells": atlas.Summary.Cells,
		"exploitable": atlas.Summary.Exploitable, "max_t": atlas.Summary.MaxT,
		"shard_range": shard, "sha256": hex.EncodeToString(sum[:])})
}

// roundTrip normalizes a value to what decoding its JSON yields, so it
// compares equal to a decoded job result.
func roundTrip(v map[string]any) (map[string]any, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var out map[string]any
	return out, json.Unmarshal(b, &out)
}

// daemon is one in-process explorefaultd: the job server behind an
// http.Server on a loopback listener.
type daemon struct {
	srv     *explorefault.JobServer
	hs      *http.Server
	served  chan error
	base    string
	startup float64 // seconds spent in NewJobServer
}

func startDaemon(dir string) (*daemon, error) {
	metrics := explorefault.NewMetrics()
	metrics.EnableRuntimeMetrics()
	start := time.Now()
	srv, err := explorefault.NewJobServer(explorefault.JobServerConfig{DataDir: dir, Workers: 2, Metrics: metrics})
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, served: make(chan error, 1), startup: time.Since(start).Seconds()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d.base = "http://" + ln.Addr().String()
	d.hs = &http.Server{Handler: srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP server down, waits for Serve to return, and closes
// the job server.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := d.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// jobRecord is the part of GET /jobs/{id} the loop reads.
type jobRecord struct {
	ID     string          `json:"id"`
	State  string          `json:"state"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
	Usage  *struct {
		WallSeconds  float64 `json:"wall_seconds"`
		QueueSeconds float64 `json:"queue_seconds"`
	} `json:"usage"`
}

func (r *jobRecord) terminal() bool {
	return r.State == "done" || r.State == "failed" || r.State == "cancelled"
}

// finishedJob is one job the loop saw through to a terminal state.
type finishedJob struct {
	id              string
	kind            string
	latency, submit float64 // seconds
	queue, run      float64 // seconds, from the job's usage record
	polls           int
	ok              bool
}

// loop is the closed-loop client state shared by the callers.
type loop struct {
	hc   *http.Client
	base string
	mix  []mixJob

	scrape chan struct{} // one token per jobsPerScrape completed jobs

	mu      sync.Mutex
	rng     *prng.Source
	purge   []string // terminal job IDs, oldest first
	jobs    []finishedJob
	scrapes int
	fails   []string
}

// call performs one HTTP round trip inside a span named after the call,
// decoding a 2xx JSON body into out. A non-2xx status is an error.
func (l *loop) call(ctx context.Context, name, method, path string, body []byte, out any) error {
	sp, _ := trace.StartSpan(ctx, name)
	defer sp.End()
	req, err := http.NewRequestWithContext(ctx, method, l.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := l.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(data))
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

func (l *loop) fail(msg string) {
	l.mu.Lock()
	l.fails = append(l.fails, msg)
	l.mu.Unlock()
}

// runJob submits the next job of the mix and polls until it is terminal.
func (l *loop) runJob(ctx context.Context) finishedJob {
	l.mu.Lock()
	mj := l.mix[l.rng.Intn(len(l.mix))]
	l.mu.Unlock()

	jsp, jctx := trace.StartSpan(ctx, "job")
	defer jsp.End()
	jsp.SetAttr("kind", mj.kind)
	start := time.Now()
	var rec jobRecord
	err := l.call(jctx, "http.submit", http.MethodPost, "/jobs", mj.body, &rec)
	fj := finishedJob{kind: mj.kind, id: rec.ID, submit: time.Since(start).Seconds()}
	jsp.SetAttr("job_id", rec.ID)
	if err != nil {
		l.fail(err.Error())
		return fj
	}
	for !rec.terminal() {
		l.mu.Lock()
		pause := time.Duration(l.rng.Intn(2 * int(pollInterval)))
		l.mu.Unlock()
		time.Sleep(pause)
		fj.polls++
		if err := l.call(jctx, "http.get", http.MethodGet, "/jobs/"+fj.id, nil, &rec); err != nil {
			l.fail(err.Error())
			return fj
		}
	}
	fj.latency = time.Since(start).Seconds()
	if rec.Usage != nil {
		fj.queue, fj.run = rec.Usage.QueueSeconds, rec.Usage.WallSeconds
	}
	var got map[string]any
	switch {
	case rec.State != "done":
		l.fail(fmt.Sprintf("job %s ended %s: %s", fj.id, rec.State, rec.Error))
	case json.Unmarshal(rec.Result, &got) != nil:
		l.fail(fmt.Sprintf("job %s: undecodable result", fj.id))
	default:
		delete(got, "atlas")
		if !reflect.DeepEqual(got, mj.want) {
			l.fail(fmt.Sprintf("job %s (%s): result %s differs from the facade's %v", fj.id, mj.kind, rec.Result, mj.want))
			break
		}
		fj.ok = true
	}
	return fj
}

// drive runs jobCallers closed-loop callers until deadline (or until
// maxJobs have completed, when it is positive), each purging the oldest
// stored job after every job it completes when purge is set, with /stats
// and /metrics scrapes beside them.
func (l *loop) drive(ctx context.Context, deadline time.Time, maxJobs int, purge bool) {
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for c := 0; c < jobCallers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			csp, cctx := trace.StartSpan(ctx, "caller")
			defer csp.End()
			for time.Now().Before(deadline) {
				l.mu.Lock()
				full := maxJobs > 0 && len(l.jobs) >= maxJobs
				l.mu.Unlock()
				if full {
					return
				}
				fj := l.runJob(cctx)
				l.mu.Lock()
				l.jobs = append(l.jobs, fj)
				if len(l.jobs)%jobsPerScrape == 0 {
					select {
					case l.scrape <- struct{}{}:
					default: // the previous scrape is still running
					}
				}
				var old string
				if purge && len(l.purge) > 0 {
					old, l.purge = l.purge[0], l.purge[1:]
				}
				if fj.id != "" {
					l.purge = append(l.purge, fj.id)
				}
				l.mu.Unlock()
				if old != "" {
					if err := l.call(cctx, "http.delete", http.MethodDelete, "/jobs/"+old, nil, nil); err != nil {
						l.fail(err.Error())
					}
				}
			}
		}()
	}
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-l.scrape:
			}
			name, path := "http.stats", "/stats"
			if i%2 == 1 {
				name, path = "http.metrics", "/metrics?format=prom"
			}
			err := l.call(ctx, name, http.MethodGet, path, nil, nil)
			l.mu.Lock()
			l.scrapes++
			l.mu.Unlock()
			if err != nil {
				l.fail(err.Error())
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scraped
}

// take returns and clears the finished jobs, the count of operations
// attempted (jobs and scrapes) and the failures recorded so far.
func (l *loop) take() ([]finishedJob, int, []string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	jobs, attempted, fails := l.jobs, len(l.jobs)+l.scrapes, l.fails
	l.jobs, l.scrapes, l.fails = nil, 0, nil
	return jobs, attempted, fails
}

// jobSetup pre-fills a fresh data dir with storedJobs finished jobs through
// the HTTP API, reopens it with a fresh server, and runs one warm-up job of
// each kind. It returns the running daemon and the loop bound to it.
func jobSetup(dir string, mix []mixJob, seed uint64) (*daemon, *loop, error) {
	d, err := startDaemon(dir)
	if err != nil {
		return nil, nil, err
	}
	l := &loop{hc: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: jobCallers + 1}},
		base: d.base, mix: mix, rng: prng.New(seed ^ 0xf111), scrape: make(chan struct{}, 1)}
	l.drive(context.Background(), time.Now().Add(time.Hour), storedJobs, false)
	_, _, fails := l.take()
	if err := d.stop(); err != nil || len(fails) > 0 {
		return nil, nil, fmt.Errorf("pre-fill: %v %v", err, fails)
	}
	if d, err = startDaemon(dir); err != nil {
		return nil, nil, fmt.Errorf("reopen: %w", err)
	}
	l.hc.CloseIdleConnections()
	l.base = d.base
	for _, kind := range jobKinds {
		for _, mj := range mix {
			if mj.kind != kind {
				continue
			}
			warm := &loop{hc: l.hc, base: l.base, mix: []mixJob{mj}, rng: prng.New(0)}
			fj := warm.runJob(context.Background())
			if _, _, fails := warm.take(); !fj.ok || len(fails) > 0 {
				d.stop()
				return nil, nil, fmt.Errorf("warm-up %s: %v", kind, fails)
			}
			l.purge = append(l.purge, fj.id)
			break
		}
	}
	return d, l, nil
}

func runJobServer(opt options) (*result, error) {
	var clock setupClock
	var mix []mixJob
	var d *daemon
	var l *loop
	var startups []float64
	for i := 0; i < setupRounds; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		dir := filepath.Join(opt.workDir, fmt.Sprintf("jobs-%d", i))
		err := clock.run(func() error {
			var err error
			if mix == nil {
				if mix, err = buildMix(opt.seed); err != nil {
					return err
				}
			}
			d, l, err = jobSetup(dir, mix, opt.seed)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("jobserver set-up: %w", err)
		}
		startups = append(startups, d.startup)
	}
	defer d.stop()

	res := &result{correct: true}
	window := time.Duration(opt.seconds * float64(time.Second))
	var tr *trace.Tracer
	var baseLatency float64
	ctx := context.Background()
	if opt.trace {
		// A third of the window runs untraced as the overhead base.
		untraced := window / 3
		l.drive(ctx, time.Now().Add(untraced), 0, true)
		jobs, attempted, fails := l.take()
		res.attempted += attempted
		res.failed += len(fails)
		baseLatency = mean(latencies(jobs))
		window -= untraced
		var root *trace.Span
		tr, root, ctx = startTrace(ctx, true)
		defer root.End()
	}
	before := readIO()
	start, cpu := time.Now(), cpuSeconds()
	l.drive(ctx, start.Add(window), 0, true)
	elapsed := time.Since(start).Seconds()
	cpu = cpuSeconds() - cpu
	wrote := readIO().writeBytes - before.writeBytes
	jobs, attempted, fails := l.take()
	res.attempted += attempted
	res.failed += len(fails)
	for _, f := range fails {
		res.notes = append(res.notes, "failure: "+f)
	}
	if len(fails) > 0 {
		res.correct = false
	}

	lat := latencies(jobs)
	p50, p95 := quantile(lat, 0.5), quantile(lat, 0.95)
	beyond := 0
	for _, x := range lat {
		if x > p95 {
			beyond++
		}
	}
	done := 0
	for _, j := range jobs {
		if j.ok {
			done++
		}
	}
	cpuPerJob := 0.0
	if done > 0 {
		cpuPerJob = cpu / float64(done)
	}
	res.endToEnd = endToEnd(&clock, cpuPerJob)
	res.named = []namedValue{
		{"job.latency_p50_s", "s", p50},
		{"job.latency_p95_s", "s", p95},
		{"job.latency_samples", "count", float64(len(lat))},
		{"job.latency_beyond_p95", "count", float64(beyond)},
		{"job.throughput_per_s", "1/s", float64(done) / elapsed},
	}
	if beyond < 10 {
		res.notes = append(res.notes, fmt.Sprintf("only %d jobs lie beyond p95; lengthen --seconds", beyond))
	}
	if opt.trace {
		ss, err := readSpans(tr)
		if err != nil {
			return nil, err
		}
		lm := jobLayers(ss, jobs)
		lm["server.startup_s"] = median(startups)
		if done > 0 {
			lm["checkpoint.bytes_per_job"] = wrote / float64(done)
		}
		lm["obs.trace_overhead_ratio"] = mean(lat)/baseLatency - 1
		res.layers = layerMetrics(lm)
	}
	return res, nil
}

func latencies(jobs []finishedJob) []float64 {
	var out []float64
	for _, j := range jobs {
		if j.ok {
			out = append(out, j.latency)
		}
	}
	return out
}

// jobLayers attributes the traced window to the server's layers: client
// round trips from the http.* spans, and each job's latency split into
// submit, queue (from its usage record), run and the settle remainder.
func jobLayers(ss *spanSet, jobs []finishedJob) map[string]float64 {
	msMean := func(name string) float64 {
		var ds []float64
		for _, s := range ss.named(name) {
			ds = append(ds, s.dur()*1e3)
		}
		return mean(ds)
	}
	var submit, queue, settle []float64
	run := map[string][]float64{}
	polls := 0
	for _, j := range jobs {
		if !j.ok {
			continue
		}
		submit = append(submit, j.submit*1e3)
		queue = append(queue, j.queue*1e3)
		run[j.kind] = append(run[j.kind], j.run*1e3)
		settle = append(settle, (j.latency-j.submit-j.queue-j.run)*1e3)
		polls += j.polls
	}
	m := map[string]float64{
		"server.submit_ms":  mean(submit),
		"server.queue_ms":   mean(queue),
		"server.settle_ms":  mean(settle),
		"server.get_ms":     msMean("http.get"),
		"server.delete_ms":  msMean("http.delete"),
		"server.stats_ms":   msMean("http.stats"),
		"server.metrics_ms": msMean("http.metrics"),
	}
	for _, kind := range jobKinds {
		m["server.run_ms."+kind] = mean(run[kind])
	}
	if n := len(submit); n > 0 {
		m["server.polls_per_job"] = float64(polls) / float64(n)
	}
	if callers := ss.busy("caller"); callers > 0 {
		m["unattributed_ratio"] = ss.selfTime("caller") / callers
	}
	return m
}
