package bitvec

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewWidths(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 256} {
		v := New(n)
		if v.Len() != n {
			t.Errorf("New(%d).Len() = %d", n, v.Len())
		}
		if !v.IsZero() {
			t.Errorf("New(%d) not zero", n)
		}
	}
}

func TestNewPanicsOutOfRange(t *testing.T) {
	for _, n := range []int{-1, 257, 1000} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d) did not panic", n)
				}
			}()
			New(n)
		}()
	}
}

func TestSetClearFlipBit(t *testing.T) {
	v := New(128)
	v.Set(0)
	v.Set(63)
	v.Set(64)
	v.Set(127)
	for _, i := range []int{0, 63, 64, 127} {
		if !v.Bit(i) {
			t.Errorf("bit %d not set", i)
		}
	}
	if v.Count() != 4 {
		t.Errorf("Count = %d, want 4", v.Count())
	}
	v.Clear(63)
	if v.Bit(63) {
		t.Error("bit 63 still set after Clear")
	}
	v.Flip(63)
	if !v.Bit(63) {
		t.Error("bit 63 not set after Flip")
	}
	v.Flip(63)
	if v.Bit(63) {
		t.Error("bit 63 set after double Flip")
	}
}

func TestBoundsChecks(t *testing.T) {
	v := New(64)
	for _, i := range []int{-1, 64, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Bit(%d) on width 64 did not panic", i)
				}
			}()
			v.Bit(i)
		}()
	}
}

func TestBitsRoundTrip(t *testing.T) {
	want := []int{2, 7, 8, 13, 77, 118, 127}
	v := FromBits(128, want...)
	if got := v.Bits(); !reflect.DeepEqual(got, want) {
		t.Errorf("Bits() = %v, want %v", got, want)
	}
}

func TestXorProperties(t *testing.T) {
	f := func(a, b [2]uint64) bool {
		va, vb := New(128), New(128)
		va.words[0], va.words[1] = a[0], a[1]
		vb.words[0], vb.words[1] = b[0], b[1]
		x := va
		x.Xor(&vb)
		x.Xor(&vb) // xor twice is identity
		return x.Equal(&va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSetOpsBasics(t *testing.T) {
	a := FromBits(64, 1, 2, 3)
	b := FromBits(64, 2, 3, 4)

	and := a
	and.And(&b)
	if got := and.Bits(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("And = %v", got)
	}

	or := a
	or.Or(&b)
	if got := or.Bits(); !reflect.DeepEqual(got, []int{1, 2, 3, 4}) {
		t.Errorf("Or = %v", got)
	}

	diff := a
	diff.AndNot(&b)
	if got := diff.Bits(); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("AndNot = %v", got)
	}
}

func TestSubsetAndIntersects(t *testing.T) {
	a := FromBits(128, 5, 9)
	b := FromBits(128, 5, 9, 13)
	c := FromBits(128, 70)
	if !a.SubsetOf(&b) {
		t.Error("a should be subset of b")
	}
	if b.SubsetOf(&a) {
		t.Error("b should not be subset of a")
	}
	if !a.Intersects(&b) {
		t.Error("a should intersect b")
	}
	if a.Intersects(&c) {
		t.Error("a should not intersect c")
	}
	// Empty vector is a subset of everything and intersects nothing.
	e := New(128)
	if !e.SubsetOf(&a) || e.Intersects(&a) {
		t.Error("empty vector subset/intersect behaviour wrong")
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	a := New(64)
	b := New(128)
	defer func() {
		if recover() == nil {
			t.Fatal("Xor of mismatched widths did not panic")
		}
	}()
	a.Xor(&b)
}

func TestBytesRoundTrip(t *testing.T) {
	f := func(p [16]byte) bool {
		v := FromBytes(p[:])
		got := v.Bytes()
		return reflect.DeepEqual(got, p[:])
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBytesBitNumbering(t *testing.T) {
	// Bit 8k+j of the vector must be bit j of byte k.
	v := FromBytes([]byte{0x01, 0x80})
	if !v.Bit(0) {
		t.Error("bit 0 of byte 0 not mapped to vector bit 0")
	}
	if !v.Bit(15) {
		t.Error("bit 7 of byte 1 not mapped to vector bit 15")
	}
	if v.Count() != 2 {
		t.Errorf("Count = %d, want 2", v.Count())
	}
}

func TestApplyToBytes(t *testing.T) {
	state := []byte{0xff, 0x00, 0xaa}
	v := FromBits(24, 0, 8, 23)
	v.ApplyToBytes(state)
	want := []byte{0xfe, 0x01, 0x2a}
	if !reflect.DeepEqual(state, want) {
		t.Errorf("ApplyToBytes = %x, want %x", state, want)
	}
}

func TestGroups(t *testing.T) {
	v := FromBits(128, 0, 3, 17, 22, 23, 100)
	if got := v.Groups(8); !reflect.DeepEqual(got, []int{0, 2, 12}) {
		t.Errorf("byte Groups = %v", got)
	}
	if got := v.Groups(4); !reflect.DeepEqual(got, []int{0, 4, 5, 25}) {
		t.Errorf("nibble Groups = %v", got)
	}
}

func TestString(t *testing.T) {
	v := FromBits(128, 2, 7)
	if got := v.String(); got != "{2, 7}/128" {
		t.Errorf("String = %q", got)
	}
}

func TestCountMatchesBitsLength(t *testing.T) {
	f := func(a [4]uint64) bool {
		v := New(256)
		copy(v.words[:], a[:])
		return v.Count() == len(v.Bits())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkXor(b *testing.B) {
	x := FromBits(128, 1, 60, 70, 127)
	y := FromBits(128, 2, 61, 71, 126)
	for i := 0; i < b.N; i++ {
		x.Xor(&y)
	}
}
