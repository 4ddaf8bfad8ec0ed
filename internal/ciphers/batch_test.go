package ciphers_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ciphers"
)

// forkCall holds the arguments of one EncryptForksOps call.
type forkCall struct {
	round                   int
	points                  []ciphers.BatchPoint
	n                       int
	pts                     []byte
	xors, ands, states, cts [][]byte
}

// TestForksOpsRejectMalformedCalls makes malformed EncryptForksOps calls
// on every registered cipher's kernel and on ScalarForksOps and requires
// each to panic with a "ciphers:" message. Each malformed call differs
// from a well-formed one, which must run, in one argument.
func TestForksOpsRejectMalformedCalls(t *testing.T) {
	for _, name := range ciphers.Names() {
		info, err := ciphers.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		c, err := info.New(make([]byte, info.KeyBytes))
		if err != nil {
			t.Fatal(err)
		}
		kern := ciphers.NewKernel(c, false)
		if kern == nil {
			t.Fatalf("%s has no fork kernel", name)
		}
		bb, last := info.BlockBytes, info.Rounds
		const n = 3
		valid := func() forkCall {
			points := []ciphers.BatchPoint{{Round: 0}, {Round: last - 2}, {Round: last, PostSub: true}}
			buf := func(size int) []byte { return make([]byte, size) }
			return forkCall{
				round:  last - 2,
				points: points,
				n:      n,
				pts:    buf(n * bb),
				xors:   [][]byte{nil, buf(n * bb)},
				ands:   [][]byte{nil, buf(n * bb)},
				states: [][]byte{buf(n * len(points) * bb), buf(n * len(points) * bb)},
				cts:    [][]byte{buf(n * bb), buf(n * bb)},
			}
		}
		cases := []struct {
			name string
			edit func(f *forkCall)
		}{
			{"round 0", func(f *forkCall) { f.round = 0 }},
			{"round past Rounds", func(f *forkCall) { f.round = last + 1 }},
			{"negative n", func(f *forkCall) { f.n = -1 }},
			{"short plaintexts", func(f *forkCall) { f.pts = f.pts[:n*bb-1] }},
			{"short XOR mask", func(f *forkCall) { f.xors[1] = f.xors[1][:n*bb-1] }},
			{"short AND mask", func(f *forkCall) { f.ands[1] = f.ands[1][:n*bb-1] }},
			{"short state buffer", func(f *forkCall) { f.states[1] = f.states[1][:len(f.states[1])-1] }},
			{"observation before fault round", func(f *forkCall) { f.points[1].Round = f.round - 1 }},
			{"states length", func(f *forkCall) { f.states = f.states[:1] }},
			{"cts length", func(f *forkCall) { f.cts = append(f.cts, nil) }},
		}
		paths := []struct {
			name string
			run  func(f forkCall)
		}{
			{"kernel", func(f forkCall) {
				kern.EncryptForksOps(f.round, f.points, f.n, f.pts, f.xors, f.ands, f.states, f.cts)
			}},
			{"scalar", func(f forkCall) {
				ciphers.ScalarForksOps(c, f.round, f.points, f.n, f.pts, f.xors, f.ands, f.states, f.cts)
			}},
		}
		for _, path := range paths {
			path.run(valid())
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%s/%s/%s", name, path.name, tc.name), func(t *testing.T) {
					f := valid()
					tc.edit(&f)
					defer func() {
						r := recover()
						if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "ciphers: ") {
							t.Errorf("panic value %v, want a \"ciphers: \" message", r)
						}
					}()
					path.run(f)
				})
			}
		}
	}
}
