package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestEmitterGoldenSchema pins the exact JSONL wire format: envelope key
// order, RFC3339Nano UTC timestamps, 0-based gap-free sequence numbers,
// and alphabetically sorted field keys (encoding/json sorts map keys, so
// the output is reproducible).
func TestEmitterGoldenSchema(t *testing.T) {
	var buf bytes.Buffer
	e := NewEmitter(&buf)
	base := time.Date(2026, 8, 6, 12, 0, 0, 0, time.UTC)
	n := 0
	e.SetClock(func() time.Time {
		n++
		return base.Add(time.Duration(n) * 250 * time.Millisecond)
	})

	e.Emit(EventRunStarted, map[string]any{"binary": "faultsim", "cipher": "gift64", "round": 25, "fault_model": "stuck-at-0", "oracle": "sifa"})
	e.Emit(EventCampaignStarted, map[string]any{
		"cipher": "gift64", "round": 25, "pattern": "0f000000f0000000",
		"bits": 8, "samples": 2048, "workers": 4, "batch": true,
		"fault_model": "stuck-at-0",
	})
	e.Emit(EventCampaignFinished, map[string]any{
		"cipher": "gift64", "round": 25, "pattern": "0f000000f0000000",
		"t": 87.5, "leaky": true, "shards": 8, "duration_ms": 12.25,
		"fault_model": "stuck-at-0",
	})
	e.Emit(EventEpisode, map[string]any{
		"episode": 1, "bits": 8, "t": 87.5, "leaky": true, "fault_model": "stuck-at-0",
	})
	e.Emit(EventRunFinished, nil)

	want := strings.Join([]string{
		`{"ts":"2026-08-06T12:00:00.25Z","seq":0,"event":"run_started","fields":{"binary":"faultsim","cipher":"gift64","fault_model":"stuck-at-0","oracle":"sifa","round":25}}`,
		`{"ts":"2026-08-06T12:00:00.5Z","seq":1,"event":"campaign_started","fields":{"batch":true,"bits":8,"cipher":"gift64","fault_model":"stuck-at-0","pattern":"0f000000f0000000","round":25,"samples":2048,"workers":4}}`,
		`{"ts":"2026-08-06T12:00:00.75Z","seq":2,"event":"campaign_finished","fields":{"cipher":"gift64","duration_ms":12.25,"fault_model":"stuck-at-0","leaky":true,"pattern":"0f000000f0000000","round":25,"shards":8,"t":87.5}}`,
		`{"ts":"2026-08-06T12:00:01Z","seq":3,"event":"episode","fields":{"bits":8,"episode":1,"fault_model":"stuck-at-0","leaky":true,"t":87.5}}`,
		`{"ts":"2026-08-06T12:00:01.25Z","seq":4,"event":"run_finished"}`,
	}, "\n") + "\n"
	if got := buf.String(); got != want {
		t.Errorf("golden mismatch:\n got: %s\nwant: %s", got, want)
	}
	if e.Dropped() != 0 {
		t.Errorf("dropped = %d", e.Dropped())
	}
}

// TestNilEmitterIsSafe: a nil emitter is the disabled state.
func TestNilEmitterIsSafe(t *testing.T) {
	var e *Emitter
	e.Emit(EventRunStarted, map[string]any{"x": 1})
	e.SetClock(time.Now)
	if e.Dropped() != 0 {
		t.Error("nil Dropped != 0")
	}
	if err := e.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("sink failed") }

// TestEmitterDropsOnFailure: marshal or write failures increment the drop
// counter and never consume sequence numbers, so surviving events stay
// gap-free.
func TestEmitterDropsOnFailure(t *testing.T) {
	e := NewEmitter(errWriter{})
	e.Emit(EventRunStarted, nil)
	e.Emit(EventRunFinished, nil)
	if e.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", e.Dropped())
	}

	var buf bytes.Buffer
	e2 := NewEmitter(&buf)
	e2.SetClock(func() time.Time { return time.Unix(0, 0) })
	e2.Emit("bad", map[string]any{"ch": make(chan int)}) // unmarshalable
	e2.Emit("good", nil)
	if e2.Dropped() != 1 {
		t.Errorf("dropped = %d, want 1", e2.Dropped())
	}
	var ev Event
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 0 || ev.Event != "good" {
		t.Errorf("surviving event = %+v, want seq 0 event good", ev)
	}
}

// TestEmitterStatsOnClose: Close appends a final emitter_stats line
// reporting emitted and dropped counts, exactly once, and events after
// Close count as drops instead of vanishing silently.
func TestEmitterStatsOnClose(t *testing.T) {
	var buf bytes.Buffer
	e := NewEmitter(&buf)
	e.SetClock(func() time.Time { return time.Unix(0, 0).UTC() })
	e.Emit(EventRunStarted, nil)
	e.Emit("bad", map[string]any{"ch": make(chan int)}) // dropped
	e.Emit(EventRunFinished, nil)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	e.Emit(EventEpisode, nil) // after Close: dropped, not written

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want 3 (two events + one stats):\n%s", len(lines), buf.String())
	}
	var last Event
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Event != EventEmitterStats {
		t.Fatalf("final event = %q, want %q", last.Event, EventEmitterStats)
	}
	if got := last.Fields["emitted"]; got != float64(2) {
		t.Errorf("emitted = %v, want 2", got)
	}
	if got := last.Fields["dropped"]; got != float64(1) {
		t.Errorf("dropped = %v, want 1", got)
	}
	if e.Dropped() != 2 {
		t.Errorf("Dropped() = %d, want 2 (one marshal failure, one post-Close)", e.Dropped())
	}
}

// TestEmitterMirrorsDrops: a registered counter tracks drops live.
func TestEmitterMirrorsDrops(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("obs.events_dropped_total")
	e := NewEmitter(errWriter{})
	e.MirrorDrops(c)
	e.Emit(EventRunStarted, nil)
	e.Emit(EventRunFinished, nil)
	if c.Value() != 2 {
		t.Errorf("mirror counter = %d, want 2", c.Value())
	}
	if e.Dropped() != 2 {
		t.Errorf("Dropped() = %d, want 2", e.Dropped())
	}
}

// TestEmitterConcurrentEmit: concurrent emitters produce whole lines with
// unique sequence numbers (run under -race).
func TestEmitterConcurrentEmit(t *testing.T) {
	var buf bytes.Buffer
	e := NewEmitter(&buf)
	const goroutines, per = 8, 50
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				e.Emit(EventEpisode, map[string]any{"g": g, "i": i})
			}
		}(g)
	}
	wg.Wait()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != goroutines*per {
		t.Fatalf("lines = %d, want %d", len(lines), goroutines*per)
	}
	seen := make(map[uint64]bool, len(lines))
	for _, line := range lines {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("torn line %q: %v", line, err)
		}
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
	}
}

// TestReadEvents pins the framing every event-log reader shares.
func TestReadEvents(t *testing.T) {
	errStop := errors.New("stop")
	huge := `{"event":"huge","fields":{"pad":"` + strings.Repeat("x", maxEventLine) + `"}}`
	cases := []struct {
		name    string
		log     string
		stopAt  int      // line at which fn returns errStop (0: never)
		want    []string // "line:event" per fn call, "!" for a decode error
		wantErr error
		wantMsg string
	}{
		{"blank lines are skipped but numbered", "{\"event\":\"a\"}\n\n \t\r\n{\"event\":\"b\"}\n",
			0, []string{"1:a", "4:b"}, nil, ""},
		{"final line without newline", "{\"event\":\"a\"}\n{\"event\":\"b\"}",
			0, []string{"1:a", "2:b"}, nil, ""},
		{"damaged line reaches fn and the scan goes on", "{\"event\":\"a\"}\n{\"event\":\"b\n{\"event\":\"c\"}\n",
			0, []string{"1:a", "2:!", "3:c"}, nil, ""},
		{"fn error is returned", "{\"event\":\"a\"}\n{\"event\":\"b\"}\n{\"event\":\"c\"}\n",
			2, []string{"1:a", "2:b"}, errStop, ""},
		{"line over the cap ends the scan", "{\"event\":\"a\"}\n" + huge + "\n{\"event\":\"c\"}\n",
			0, []string{"1:a"}, bufio.ErrTooLong, "line 2: "},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got []string
			err := ReadEvents(strings.NewReader(tc.log), func(line int, ev Envelope[struct{}], err error) error {
				kind := ev.Event
				if err != nil {
					kind = "!"
				}
				got = append(got, fmt.Sprintf("%d:%s", line, kind))
				if line == tc.stopAt {
					return errStop
				}
				return nil
			})
			if !errors.Is(err, tc.wantErr) || err != nil && !strings.Contains(err.Error(), tc.wantMsg) {
				t.Errorf("error = %v, want %v containing %q", err, tc.wantErr, tc.wantMsg)
			}
			if strings.Join(got, " ") != strings.Join(tc.want, " ") {
				t.Errorf("calls = %v, want %v", got, tc.want)
			}
		})
	}
}
