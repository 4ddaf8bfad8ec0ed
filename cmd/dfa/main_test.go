package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunFlagErrors requires every rejected run, whether its flags fail
// to parse or the attack rejects its round or pair count, to print no
// banner.
func TestRunFlagErrors(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-key", "zz"},
		{"-cipher", "gift64", "-nibbles", "notanumber"},
		{"-cipher", "gift64", "-nibbles", "16"},
		{"-cipher", "present80"},
		{"-cipher", "aes128", "-round", "5"},
		{"-cipher", "gift64", "-round", "29"},
		{"-cipher", "gift128", "-pairs", "-1"},
	}
	for _, args := range cases {
		var out, errb bytes.Buffer
		if err := run(context.Background(), args, &out, &errb); err == nil {
			t.Errorf("run(%v): expected error, got nil", args)
		}
		if strings.Contains(out.String(), "DFA") {
			t.Errorf("run(%v) printed a banner before failing:\n%s", args, out.String())
		}
	}
}

// TestRunGIFT128 runs the GIFT-128 attack at its own default fault round
// and requires a banner naming the cipher and a verified partial key.
func TestRunGIFT128(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-cipher", "gift128", "-pairs", "96", "-seed", "7"}, &out, &errb); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errb.String())
	}
	for _, want := range []string{"GIFT-128 DFA", "at round 37", "/ 128\n", "verified correct   : true"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "recovered key bits : 0 /") {
		t.Errorf("no key bits recovered:\n%s", out.String())
	}
}

// TestRunAES128 runs the Piret–Quisquater attack at its defaults and
// requires the full key, verified; a fault round other than 9 is an error
// naming the round.
func TestRunAES128(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run(context.Background(), []string{"-cipher", "aes128", "-seed", "7"}, &out, &errb); err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errb.String())
	}
	for _, want := range []string{"AES-128 Piret–Quisquater DFA", "128 / 128\n", "verified correct   : true"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}
	err := run(context.Background(), []string{"-cipher", "aes128", "-round", "5"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "round 5") {
		t.Errorf("-cipher aes128 -round 5: err = %v, want an error naming round 5", err)
	}
}

func TestRunTinyEndToEnd(t *testing.T) {
	evPath := filepath.Join(t.TempDir(), "run.jsonl")
	var out, errb bytes.Buffer
	err := run(context.Background(), []string{
		"-cipher", "gift64", "-nibbles", "8,9,10,11,12,14",
		"-round", "25", "-pairs", "64", "-seed", "1", "-events", evPath,
	}, &out, &errb)
	if err != nil {
		t.Fatalf("run: %v\nstderr: %s", err, errb.String())
	}
	for _, want := range []string{"GIFT-64 DFA", "recovered key bits", "offline complexity"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("stdout missing %q:\n%s", want, out.String())
		}
	}

	data, err := os.ReadFile(evPath)
	if err != nil {
		t.Fatalf("events file: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected run_started + run_finished + emitter_stats, got %d lines", len(lines))
	}
	var last struct {
		Event  string         `json:"event"`
		Fields map[string]any `json:"fields"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Event != "run_finished" {
		t.Errorf("second event = %q, want run_finished", last.Event)
	}
	// The emitter closes the log with its own stats line; a drop count
	// of zero certifies the log is complete.
	if err := json.Unmarshal([]byte(lines[2]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Event != "emitter_stats" {
		t.Errorf("last event = %q, want emitter_stats", last.Event)
	}
	if d, ok := last.Fields["dropped"].(float64); !ok || d != 0 {
		t.Errorf("emitter_stats dropped = %v, want 0", last.Fields["dropped"])
	}
	if _, ok := last.Fields["recovered_bits"]; !ok {
		t.Errorf("run_finished missing recovered_bits: %v", last.Fields)
	}
}
