package expfault

import (
	"repro/internal/bitvec"
	"repro/internal/ciphers"
	"repro/internal/fault"
	"repro/internal/prng"
)

// collectForks drives count (clean, faulty) paired encryptions through
// the fork engine in 64-wide blocks and hands each pair's states to
// visit, in sample order and, within a sample, in point order: visit(j,
// clean, faulty) receives both branches' bytes at points[j]. A non-nil
// kern computes the shared prefix up to the fault round once per
// plaintext and runs the forked rounds through the cipher's
// bitsliced/word kernel; a nil kern runs the scalar reference path.
//
// Per sample the plaintext is filled first and the fault model drawn
// second, with no other consumers in between, so the PRNG stream does not
// depend on the block size or the path. An empty point list keeps the
// draws and visits nothing.
//
// Uniform plaintexts make the state at the injection point uniform
// regardless of key, so for every fault model the joint (state, fault)
// distribution — and with it every later round's differential
// distribution — is key-independent, which is all the offline templates
// need.
func collectForks(c ciphers.Cipher, kern ciphers.BatchKernel, pattern *bitvec.Vector, model fault.Model, faultRound int, points []ciphers.BatchPoint, count int, rng *prng.Source, visit func(j int, clean, faulty []byte)) {
	bb, np := c.BlockBytes(), len(points)
	inj := fault.NewInjector(*pattern, model, fault.RandomMask)
	const block = 64
	pts := make([]byte, block*bb)
	var xorBuf, andBuf []byte
	if inj.HasXor() {
		xorBuf = make([]byte, block*bb)
	}
	if inj.HasAnd() {
		andBuf = make([]byte, block*bb)
	}
	stClean := make([]byte, block*np*bb)
	stFault := make([]byte, block*np*bb)
	xors, ands := [][]byte{nil, xorBuf}, [][]byte{nil, andBuf}
	states := [][]byte{stClean, stFault}
	cts := [][]byte{nil, nil}
	for base := 0; base < count; base += block {
		bn := min(block, count-base)
		for t := 0; t < bn; t++ {
			rng.Fill(pts[t*bb : (t+1)*bb])
			var xs, as []byte
			if xorBuf != nil {
				xs = xorBuf[t*bb : (t+1)*bb]
			}
			if andBuf != nil {
				as = andBuf[t*bb : (t+1)*bb]
			}
			inj.Draw(xs, as, rng)
		}
		ciphers.EncryptForksOps(c, kern, faultRound, points, bn, pts, xors, ands, states, cts)
		for t := 0; t < bn*np; t++ {
			visit(t%np, stClean[t*bb:(t+1)*bb], stFault[t*bb:(t+1)*bb])
		}
	}
}
