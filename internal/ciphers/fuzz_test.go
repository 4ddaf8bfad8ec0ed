package ciphers_test

import (
	"bytes"
	"testing"

	"repro/internal/ciphers"
	_ "repro/internal/ciphers/aes"     // register aes128
	_ "repro/internal/ciphers/gift"    // register gift64, gift128
	_ "repro/internal/ciphers/present" // register present80
	_ "repro/internal/ciphers/simon"   // register simon64, simon32
	_ "repro/internal/ciphers/speck"   // register speck64, speck32
)

// decrypter is the inverse-permutation capability every concrete cipher
// implementation provides (it is not part of the Cipher interface because
// the fault engine never decrypts).
type decrypter interface {
	Decrypt(dst, src []byte)
}

// fuzzCipher resolves a registered cipher from a fuzz selector byte and
// shapes the raw key material to the required length, so every input maps
// to a valid construction.
func fuzzCipher(t *testing.T, idx byte, keyMaterial []byte) (ciphers.Cipher, ciphers.Info) {
	t.Helper()
	names := ciphers.Names()
	info, err := ciphers.Lookup(names[int(idx)%len(names)])
	if err != nil {
		t.Fatal(err)
	}
	key := make([]byte, info.KeyBytes)
	copy(key, keyMaterial)
	c, err := info.New(key)
	if err != nil {
		t.Fatalf("%s: %v", info.Name, err)
	}
	return c, info
}

// FuzzEncryptDecrypt checks, for every registered cipher, that Decrypt
// inverts Encrypt on arbitrary keys and plaintexts and that Encrypt is
// deterministic.
func FuzzEncryptDecrypt(f *testing.F) {
	f.Add(byte(0), []byte("0123456789abcdef"), []byte("fedcba9876543210"))
	f.Add(byte(3), []byte{}, []byte{0xff})
	for i := 0; i < 8; i++ {
		f.Add(byte(i), bytes.Repeat([]byte{byte(i)}, 16), bytes.Repeat([]byte{0xa5}, 16))
	}
	f.Fuzz(func(t *testing.T, idx byte, keyMaterial, ptMaterial []byte) {
		c, info := fuzzCipher(t, idx, keyMaterial)
		pt := make([]byte, info.BlockBytes)
		copy(pt, ptMaterial)

		ct := make([]byte, info.BlockBytes)
		c.Encrypt(ct, pt, nil, nil)

		ct2 := make([]byte, info.BlockBytes)
		c.Encrypt(ct2, pt, nil, nil)
		if !bytes.Equal(ct, ct2) {
			t.Fatalf("%s: Encrypt not deterministic: %x vs %x", info.Name, ct, ct2)
		}

		d, ok := c.(decrypter)
		if !ok {
			t.Fatalf("%s: implementation lacks Decrypt", info.Name)
		}
		rt := make([]byte, info.BlockBytes)
		d.Decrypt(rt, ct)
		if !bytes.Equal(rt, pt) {
			t.Fatalf("%s: Decrypt(Encrypt(pt)) = %x, want %x (key %x)", info.Name, rt, pt, keyMaterial)
		}
	})
}

// FuzzBatchScalarEquivalence cross-checks the batched fork kernels
// against the scalar reference path on arbitrary keys, plaintext batches,
// (XOR, AND) injection pairs, rounds and observation points. An empty
// andMaterial exercises the XOR-only injection (nil AND masks); a
// non-empty one adds the kernel's AND lanes. This is the exactness
// contract the fault-campaign fast path rests on.
func FuzzBatchScalarEquivalence(f *testing.F) {
	f.Add(byte(0), byte(8), byte(3), []byte("k"), []byte("p"), []byte{0x01}, []byte{})
	f.Add(byte(2), byte(25), byte(5), []byte{0xaa}, bytes.Repeat([]byte{0x0f}, 64), []byte{0x80, 0x01}, []byte{})
	f.Add(byte(1), byte(1), byte(1), []byte{}, []byte{}, []byte{}, []byte{})
	f.Add(byte(0), byte(8), byte(2), []byte("key"), []byte("pt"), []byte{0x0f}, []byte{0xf0, 0xff})
	f.Add(byte(2), byte(25), byte(4), []byte{0x55}, bytes.Repeat([]byte{0xcc}, 32), []byte{}, []byte{0x7f})
	f.Fuzz(func(t *testing.T, idx, roundSel, nSel byte, keyMaterial, ptMaterial, maskMaterial, andMaterial []byte) {
		c, info := fuzzCipher(t, idx, keyMaterial)
		be, ok := c.(ciphers.BatchEncrypter)
		if !ok {
			t.Skip("no batch kernel")
		}
		bb := info.BlockBytes
		round := 1 + int(roundSel)%info.Rounds
		// Batch sizes reach past bitsliceMin (8) so the fuzzer drives the
		// lane-packed kernels as well as the small-block per-trace path.
		n := 1 + int(nSel)%12

		pts := make([]byte, n*bb)
		copy(pts, ptMaterial)
		maskBuf := make([]byte, n*bb)
		for i := 0; i < len(maskBuf) && len(maskMaterial) > 0; i++ {
			maskBuf[i] = maskMaterial[i%len(maskMaterial)]
		}
		xors := [][]byte{nil, maskBuf}
		ands := [][]byte{nil, nil}
		if len(andMaterial) > 0 {
			andBuf := make([]byte, n*bb)
			for i := range andBuf {
				andBuf[i] = andMaterial[i%len(andMaterial)]
			}
			ands[1] = andBuf
		}

		// Observe the ciphertext, the faulted round input, and a
		// post-substitution state at a round derived from the inputs.
		obsRound := round + int(roundSel)%(info.Rounds-round+1)
		points := []ciphers.BatchPoint{
			{Round: 0},
			{Round: round},
			{Round: obsRound, PostSub: true},
		}

		mkBufs := func() (states, cts [][]byte) {
			for range xors {
				states = append(states, make([]byte, n*len(points)*bb))
				cts = append(cts, make([]byte, n*bb))
			}
			return
		}
		batchStates, batchCts := mkBufs()
		kern := be.NewBatchKernel()
		ciphers.EncryptForksOps(c, kern, round, points, n, pts, xors, ands, batchStates, batchCts)

		refStates, refCts := mkBufs()
		ciphers.ScalarForksOps(c, round, points, n, pts, xors, ands, refStates, refCts)

		for fk := range xors {
			if !bytes.Equal(batchCts[fk], refCts[fk]) {
				t.Fatalf("%s round %d branch %d: batch ciphertexts diverge\nbatch %x\nref   %x",
					info.Name, round, fk, batchCts[fk], refCts[fk])
			}
			if !bytes.Equal(batchStates[fk], refStates[fk]) {
				t.Fatalf("%s round %d branch %d: batch states diverge at points %v",
					info.Name, round, fk, points)
			}
		}
	})
}
