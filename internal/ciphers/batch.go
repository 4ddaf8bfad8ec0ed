// Batched paired-trace encryption: the fork engine behind every fault
// simulation.
//
// A fault campaign encrypts every plaintext at least twice — once cleanly
// and once per faulty branch — and the two computations coincide on every
// round before the injection point. The batch API exposes exactly that
// structure: one EncryptForksOps call runs the shared prefix (rounds
// 1..round-1) once per plaintext, snapshots the state, and forks each
// branch from the snapshot, so the redundant prefix work is paid once
// instead of once per branch. Kernels additionally replace the
// byte-at-a-time reference round functions with word-oriented code
// (T-table AES, bitsliced GIFT); both optimizations are exactness
// preserving and cross-checked against ScalarForksOps by the test suite.
package ciphers

import "fmt"

// BatchPoint identifies one observation point of a batched collection
// call. Round 0 selects the ciphertext in trace order (the byte layout of
// Trace.Ciphertext); Round r >= 1 selects the input of round r
// (PostSub false) or the state after round r's substitution layer
// (PostSub true), both in the repository bit order used by Trace.
type BatchPoint struct {
	Round   int
	PostSub bool
}

// BatchEncrypter is the optional capability interface of ciphers that
// provide a batched fork kernel. Ciphers without it run the scalar
// reference path (ScalarForksOps).
type BatchEncrypter interface {
	Cipher
	// NewBatchKernel returns a reusable kernel holding the scratch state
	// of the batched fork engine. Kernels are not safe for concurrent
	// use; each campaign shard creates its own.
	NewBatchKernel() BatchKernel
}

// NewKernel returns a new fork kernel for c, or nil — the scalar
// reference path of EncryptForksOps — when c has none or noBatch is set.
func NewKernel(c Cipher, noBatch bool) BatchKernel {
	if be, ok := c.(BatchEncrypter); ok && !noBatch {
		return be.NewBatchKernel()
	}
	return nil
}

// BatchKernel encrypts batches of plaintexts with shared-prefix forking.
type BatchKernel interface {
	// EncryptForksOps processes n plaintexts. Plaintext i occupies
	// pts[i*BlockBytes():(i+1)*BlockBytes()] in the same byte order as
	// Encrypt's src. For each plaintext the kernel runs rounds
	// 1..round-1 once, then forks one branch per entry of xors: branch
	// f replaces the snapshot at the input of round `round` with
	// (state AND ands[f][i*bb:]) XOR xors[f][i*bb:] (repository bit
	// order, like Fault). A nil ands or ands[f] means all-ones and a nil
	// xors[f] all-zero, so a branch with neither is the clean branch.
	// After the forked rounds complete, branch f's state at observation
	// point j of trace i is written to states[f][(i*len(points)+j)*bb:...]
	// (nil states[f] skips point capture) and its ciphertext — in
	// Encrypt's dst byte order — to cts[f][i*bb:(i+1)*bb] (nil cts[f]
	// skips it). Every point must satisfy Round == 0 or
	// round <= Round <= Rounds().
	//
	// The result is bit-identical to running Encrypt once per (trace,
	// branch) with the corresponding Fault and Trace (ScalarForksOps).
	EncryptForksOps(round int, points []BatchPoint, n int, pts []byte, xors, ands, states, cts [][]byte)
}

// EncryptForksOps runs one batch through kern, or through the scalar
// reference path ScalarForksOps when kern is nil.
func EncryptForksOps(c Cipher, kern BatchKernel, round int, points []BatchPoint, n int, pts []byte, xors, ands, states, cts [][]byte) {
	if kern == nil {
		ScalarForksOps(c, round, points, n, pts, xors, ands, states, cts)
		return
	}
	kern.EncryptForksOps(round, points, n, pts, xors, ands, states, cts)
}

// ValidateForksOps panics if an EncryptForksOps call is malformed for
// cipher c. Kernels and ScalarForksOps call it at the top of every batch.
func ValidateForksOps(c Cipher, round int, points []BatchPoint, n int, pts []byte, xors, ands, states, cts [][]byte) {
	bb := c.BlockBytes()
	if round < 1 || round > c.Rounds() {
		panic("ciphers: fork round out of range")
	}
	if n < 0 {
		panic("ciphers: negative batch size")
	}
	if len(pts) < n*bb {
		panic(fmt.Sprintf("ciphers: %d plaintext bytes for %d traces of %d bytes", len(pts), n, bb))
	}
	for _, p := range points {
		if p.Round != 0 && (p.Round < round || p.Round > c.Rounds()) {
			panic(fmt.Sprintf("ciphers: fork observation round %d outside %d..%d", p.Round, round, c.Rounds()))
		}
	}
	if len(states) != len(xors) || len(cts) != len(xors) {
		panic(fmt.Sprintf("ciphers: %d masks, %d state buffers, %d ciphertext buffers", len(xors), len(states), len(cts)))
	}
	if ands != nil && len(ands) != len(xors) {
		panic(fmt.Sprintf("ciphers: %d XOR mask branches, %d AND mask branches", len(xors), len(ands)))
	}
	for f := range xors {
		if xors[f] != nil && len(xors[f]) < n*bb {
			panic(fmt.Sprintf("ciphers: branch %d mask buffer too short", f))
		}
		if ands != nil && ands[f] != nil && len(ands[f]) < n*bb {
			panic(fmt.Sprintf("ciphers: branch %d AND mask buffer too short", f))
		}
		if states[f] != nil && len(states[f]) < n*len(points)*bb {
			panic(fmt.Sprintf("ciphers: branch %d state buffer too short", f))
		}
		if cts[f] != nil && len(cts[f]) < n*bb {
			panic(fmt.Sprintf("ciphers: branch %d ciphertext buffer too short", f))
		}
	}
}

// ScalarForksOps is the reference implementation of the BatchKernel
// contract for an arbitrary Cipher: one full Encrypt per (trace, branch)
// with a Fault carrying both mask halves, and the requested point states
// copied out of a Trace. It runs ciphers without a kernel and callers
// that ask for the reference path, and every kernel is verified against
// it.
func ScalarForksOps(c Cipher, round int, points []BatchPoint, n int, pts []byte, xors, ands, states, cts [][]byte) {
	ValidateForksOps(c, round, points, n, pts, xors, ands, states, cts)
	bb, np := c.BlockBytes(), len(points)
	tr := NewTrace(c)
	out := make([]byte, bb)
	f := &Fault{Round: round}
	for i := 0; i < n; i++ {
		pt := pts[i*bb : (i+1)*bb]
		for fi := range xors {
			var fault *Fault
			f.Mask, f.And = nil, nil
			if xors[fi] != nil {
				f.Mask = xors[fi][i*bb : (i+1)*bb]
				fault = f
			}
			if ands != nil && ands[fi] != nil {
				f.And = ands[fi][i*bb : (i+1)*bb]
				fault = f
			}
			c.Encrypt(out, pt, fault, tr)
			if st := states[fi]; st != nil {
				for j, p := range points {
					copy(st[(i*np+j)*bb:], batchPointState(tr, p))
				}
			}
			if ct := cts[fi]; ct != nil {
				copy(ct[i*bb:], out)
			}
		}
	}
}

// batchPointState resolves a BatchPoint against a filled Trace.
func batchPointState(tr *Trace, p BatchPoint) []byte {
	switch {
	case p.Round == 0:
		return tr.Ciphertext
	case p.PostSub:
		return tr.PostSub[p.Round-1]
	default:
		return tr.Inputs[p.Round-1]
	}
}
