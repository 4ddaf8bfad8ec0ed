// Package ciphers defines the trace-level block-cipher abstraction that the
// fault-simulation engine is built on, plus a registry of implementations.
//
// A trace-level cipher exposes its iterative round structure: callers can
// inject an XOR fault into the state at the input of any round and capture
// every intermediate round state. This is exactly the access a fault
// simulator needs and is why the ciphers are implemented from scratch
// rather than wrapping crypto/aes (which hides round states).
//
// # Bit numbering
//
// State bit i (0-based) is bit i%8 of state byte i/8. Each implementation
// documents how its specification's bit/byte order maps onto this layout.
// Fault patterns, masks and differentials all use this numbering.
package ciphers

// Cipher is a trace-level block cipher; see the package comment for the
// bit-numbering and round conventions.
type Cipher interface {
	// Name returns a stable identifier, e.g. "aes128" or "gift64".
	Name() string
	// BlockBytes returns the state width in bytes.
	BlockBytes() int
	// Rounds returns the number of rounds. Fault injection rounds and
	// trace indices are 1-based: round r for r in 1..Rounds().
	Rounds() int
	// GroupBits returns the natural substitution-word width in bits:
	// 8 for AES (byte S-boxes), 4 for GIFT and PRESENT (nibble S-boxes),
	// and 8 for SIMON and SPECK, which have no S-boxes and group by byte.
	// Fault-model abstraction and t-test grouping default to this size.
	GroupBits() int
	// Encrypt encrypts the BlockBytes()-byte block src into dst
	// (they may alias). If fault is non-nil, the state at the input of
	// round fault.Round becomes (state AND fault.And) XOR fault.Mask,
	// with a nil And meaning all-ones and a nil Mask meaning all-zero.
	// If trace is non-nil it is filled with every round-input state,
	// every post-substitution state, and the ciphertext. The fault is
	// applied before the round input is recorded, so
	// Inputs[fault.Round-1] reflects the faulty state.
	Encrypt(dst, src []byte, fault *Fault, trace *Trace)
}

// Fault is a fault applied to the cipher state at the input of a round:
// the state becomes (state AND And) XOR Mask. Both masks have
// BlockBytes() bytes in the package bit numbering; a nil And is the
// identity (all-ones) and a nil Mask is all-zero, so the classic XOR
// bit-flip fault sets Mask only, while stuck-at faults clear bits via And
// (stuck-at-0) and re-set them via Mask (stuck-at-1). At least one mask
// must be non-nil. This (a, x) pair expresses every per-bit fault
// function: identity, flip, stuck-at-0 and stuck-at-1.
type Fault struct {
	Round int
	Mask  []byte // XOR half; nil = no flips
	And   []byte // AND half; nil = all-ones (no clamping)
}

// Trace captures the intermediate states of one encryption.
// All slices are owned by the trace and overwritten by each Encrypt call.
type Trace struct {
	// Inputs[r-1] is the state at the input of round r, i.e. after all
	// operations of round r-1 (and after the initial whitening, if the
	// cipher has one) and after fault injection for round r.
	Inputs [][]byte
	// PostSub[r-1] is the state immediately after the substitution layer
	// of round r. GIFT's distinguishers are observed here (§IV-D).
	PostSub [][]byte
	// Ciphertext is the final output block.
	Ciphertext []byte
}

// NewTrace allocates a trace sized for c.
func NewTrace(c Cipher) *Trace {
	t := &Trace{
		Inputs:     make([][]byte, c.Rounds()),
		PostSub:    make([][]byte, c.Rounds()),
		Ciphertext: make([]byte, c.BlockBytes()),
	}
	for i := range t.Inputs {
		t.Inputs[i] = make([]byte, c.BlockBytes())
		t.PostSub[i] = make([]byte, c.BlockBytes())
	}
	return t
}

// Validate panics if the fault is malformed for cipher c. It is called by
// implementations at the top of Encrypt.
func (f *Fault) Validate(c Cipher) {
	if f == nil {
		return
	}
	if f.Round < 1 || f.Round > c.Rounds() {
		panic("ciphers: fault round out of range")
	}
	if f.Mask == nil && f.And == nil {
		panic("ciphers: fault has neither XOR nor AND mask")
	}
	if f.Mask != nil && len(f.Mask) != c.BlockBytes() {
		panic("ciphers: fault mask length mismatch")
	}
	if f.And != nil && len(f.And) != c.BlockBytes() {
		panic("ciphers: fault AND mask length mismatch")
	}
}
