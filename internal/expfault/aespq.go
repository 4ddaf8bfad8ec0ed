package expfault

import (
	"fmt"
	"math"

	"repro/internal/ciphers"
	"repro/internal/ciphers/aes"
	"repro/internal/prng"
)

// AESPiretQuisquater mounts the classic Piret–Quisquater DFA [23] against
// AES-128, the attack that the byte fault models discovered by
// ExploreFault enable: a single-byte fault at the input of round 9
// produces a MixColumns-patterned differential (m0·z, m1·z, m2·z, m3·z)
// in one column of the round-10 input, which filters the four last-round
// key bytes covering that column. Faults on bytes of all four SR-target
// columns recover the whole of K10, which inverts to the master key via
// the key schedule.
//
// The attack runs against the trace-level simulator, so its success is
// verified against the true key. pairsPerColumn faulty ciphertexts are
// collected per column (2 suffice in theory; 3 is robust). Each column's
// pairs run through the cipher's batched fork kernel in one call — the
// rounds before the injection are computed once per plaintext and both
// branches use the T-table fast path — with the PRNG drawn per pair in
// the scalar order, so collected pairs (and with them every candidate
// set) are bit-identical to per-pair Encrypt calls.
func AESPiretQuisquater(c *aes.Cipher, pairsPerColumn int, rng *prng.Source) (*KeyRecoveryResult, error) {
	if pairsPerColumn < 2 {
		return nil, fmt.Errorf("expfault: need at least 2 pairs per column")
	}
	kern := ciphers.NewKernel(c, false)
	// MixColumns coefficient column for a fault entering at row r:
	// output byte i of the column gets mc[i][r]·z.
	mc := [4][4]byte{
		{2, 3, 1, 1},
		{1, 2, 3, 1},
		{1, 1, 2, 3},
		{3, 1, 1, 2},
	}

	var recoveredK10 [16]byte
	var have [16]bool
	guessesScored := 0.0
	faults := 0

	pt := make([]byte, 16)
	clean := make([]byte, 16)
	faulty := make([]byte, 16)

	// Batch buffers: up to pairsPerColumn pairs per fork call (the rare
	// adaptive extensions run one pair at a time, preserving the scalar
	// PRNG draw order).
	ptBuf := make([]byte, pairsPerColumn*16)
	maskBuf := make([]byte, pairsPerColumn*16)
	cleanBuf := make([]byte, pairsPerColumn*16)
	faultyBuf := make([]byte, pairsPerColumn*16)
	noPoints := []ciphers.BatchPoint{}

	// For each target column j of the round-10 input, fault the round-9
	// input byte at row 0 that ShiftRows sends to column j: byte (0, j).
	for col := 0; col < 4; col++ {
		faultByte := 4 * col // row 0, column col; SR keeps row 0 in place
		row := faultByte % 4
		// Ciphertext positions of the column's bytes after SubBytes and
		// ShiftRows of round 10.
		var ctPos [4]int
		for i := 0; i < 4; i++ {
			ctPos[i] = aes.ShiftRowsIndex(4*col + i)
		}
		// Candidate key quads surviving all pairs so far. If the fixed
		// budget leaves more than one survivor (rare but possible —
		// two pairs can share spurious z-collisions), keep collecting
		// extra pairs up to a small cap; each extra pair filters the
		// impostors by a factor of ~2^-24.
		var survivors [][4]byte
		first := true
		pairsBudget := pairsPerColumn
		for collected := 0; collected < pairsBudget; {
			n := pairsBudget - collected
			for t := 0; t < n; t++ {
				rng.Fill(ptBuf[t*16 : (t+1)*16])
				mask := maskBuf[t*16 : (t+1)*16]
				for i := range mask {
					mask[i] = 0
				}
				// Non-zero random fault value on the chosen byte.
				for mask[faultByte] == 0 {
					mask[faultByte] = rng.Byte()
				}
			}
			ciphers.EncryptForksOps(c, kern, 9, noPoints, n, ptBuf,
				[][]byte{nil, maskBuf}, nil, [][]byte{nil, nil}, [][]byte{cleanBuf, faultyBuf})
			faults += n
			for t := 0; t < n; t++ {
				cands := pqColumnCandidates(cleanBuf[t*16:(t+1)*16], faultyBuf[t*16:(t+1)*16], ctPos, mc, row)
				guessesScored += 1024 // 4 * 256 table builds per pair
				if first {
					survivors = cands
					first = false
					continue
				}
				survivors = intersectQuads(survivors, cands)
			}
			collected += n
			// Extend the budget one pair at a time while ambiguity and
			// the cap allow, exactly as the scalar loop did.
			if len(survivors) > 1 && pairsBudget < pairsPerColumn+4 {
				pairsBudget = collected + 1
			}
		}
		if len(survivors) != 1 {
			return &KeyRecoveryResult{
				TotalKeyBits: 128,
				FaultsUsed:   faults,
				Notes:        fmt.Sprintf("column %d: %d key-quad candidates remain", col, len(survivors)),
			}, nil
		}
		for i := 0; i < 4; i++ {
			recoveredK10[ctPos[i]] = survivors[0][i]
			have[ctPos[i]] = true
		}
	}
	for _, h := range have {
		if !h {
			return nil, fmt.Errorf("expfault: internal error: K10 byte not covered")
		}
	}

	master := aesInvertKeySchedule(recoveredK10)
	verify, err := aes.New(master[:])
	if err != nil {
		return nil, err
	}
	// Correctness check: the derived cipher must reproduce a known
	// plaintext/ciphertext pair of the target.
	rng.Fill(pt)
	c.Encrypt(clean, pt, nil, nil)
	verify.Encrypt(faulty, pt, nil, nil)
	correct := equal16(clean, faulty)

	return &KeyRecoveryResult{
		RecoveredBits: 128,
		TotalKeyBits:  128,
		FaultsUsed:    faults,
		OfflineLog2:   log2(guessesScored),
		Correct:       correct,
		Notes:         "full K10 via Piret–Quisquater; master key by key-schedule inversion",
	}, nil
}

// pqColumnCandidates returns all key quads (k0..k3 at ctPos order) that
// are consistent with the MixColumns pattern for one fault pair.
func pqColumnCandidates(clean, faulty []byte, ctPos [4]int, mc [4][4]byte, row int) [][4]byte {
	// diffTable[i][d] lists key bytes k with
	// InvSB(c_i^k) ^ InvSB(c'_i^k) == d.
	var diffTable [4][256][]byte
	for i := 0; i < 4; i++ {
		ci, fi := clean[ctPos[i]], faulty[ctPos[i]]
		for k := 0; k < 256; k++ {
			d := aes.InvSBox(ci^byte(k)) ^ aes.InvSBox(fi^byte(k))
			diffTable[i][d] = append(diffTable[i][d], byte(k))
		}
	}
	var out [][4]byte
	// Enumerate the unknown fault difference z (it is non-zero).
	for z := 1; z < 256; z++ {
		var lists [4][]byte
		ok := true
		for i := 0; i < 4; i++ {
			want := aes.MulGF(mc[i][row], byte(z))
			lists[i] = diffTable[i][want]
			if len(lists[i]) == 0 {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for _, k0 := range lists[0] {
			for _, k1 := range lists[1] {
				for _, k2 := range lists[2] {
					for _, k3 := range lists[3] {
						out = append(out, [4]byte{k0, k1, k2, k3})
					}
				}
			}
		}
	}
	return out
}

func intersectQuads(a, b [][4]byte) [][4]byte {
	set := make(map[[4]byte]bool, len(b))
	for _, q := range b {
		set[q] = true
	}
	var out [][4]byte
	for _, q := range a {
		if set[q] {
			out = append(out, q)
		}
	}
	return out
}

// aesInvertKeySchedule walks the AES-128 key schedule backwards from the
// round-10 key to the master key.
func aesInvertKeySchedule(k10 [16]byte) [16]byte {
	var w [44][4]byte
	for i := 0; i < 4; i++ {
		copy(w[40+i][:], k10[4*i:4*i+4])
	}
	rcon := [10]byte{1, 2, 4, 8, 16, 32, 64, 128, 0x1b, 0x36}
	for i := 39; i >= 0; i-- {
		if (i+4)%4 == 0 {
			t := w[i+3]
			t = [4]byte{aes.SBox(t[1]), aes.SBox(t[2]), aes.SBox(t[3]), aes.SBox(t[0])}
			t[0] ^= rcon[(i+4)/4-1]
			for j := 0; j < 4; j++ {
				w[i][j] = w[i+4][j] ^ t[j]
			}
		} else {
			for j := 0; j < 4; j++ {
				w[i][j] = w[i+4][j] ^ w[i+3][j]
			}
		}
	}
	var master [16]byte
	for i := 0; i < 4; i++ {
		copy(master[4*i:4*i+4], w[i][:])
	}
	return master
}

func equal16(a, b []byte) bool {
	for i := 0; i < 16; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func log2(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return math.Log2(x)
}
