package field

import (
	"encoding/binary"
	"errors"
	"io"
	"math/big"
	"slices"
)

// ErrShortBuffer is returned by ReadElem when the source slice holds fewer
// than ElemSize bytes.
var ErrShortBuffer = errors.New("field: short buffer")

// ErrNonCanonical is returned by ReadElem when the decoded integer is not in
// the canonical range [0, p).
var ErrNonCanonical = errors.New("field: non-canonical element encoding")

// Field describes a prime field with element type E. Implementations are
// small value types (often zero-sized) so that generic code instantiated on a
// concrete Field implementation compiles to direct calls.
//
// Elements are immutable values: no method may mutate its arguments.
type Field[E any] interface {
	// Name returns a short human-readable identifier, e.g. "F64".
	Name() string
	// Bits returns the bit length of the field modulus.
	Bits() int
	// ElemSize returns the number of bytes of the fixed-width canonical
	// little-endian element encoding.
	ElemSize() int
	// Modulus returns a fresh copy of the field modulus.
	Modulus() *big.Int

	// Zero returns the additive identity.
	Zero() E
	// One returns the multiplicative identity.
	One() E
	// FromUint64 maps v into the field (reducing mod p).
	FromUint64(v uint64) E
	// FromInt64 maps v into the field; negative values map to p - |v| mod p.
	FromInt64(v int64) E
	// FromBig maps an arbitrary integer into the field (reducing mod p).
	FromBig(v *big.Int) E
	// ToBig returns the canonical representative in [0, p) as a fresh big.Int.
	ToBig(a E) *big.Int
	// ToUint64 returns the canonical representative if it fits in a uint64.
	ToUint64(a E) (uint64, bool)

	// Add returns a + b.
	Add(a, b E) E
	// Sub returns a - b.
	Sub(a, b E) E
	// Neg returns -a.
	Neg(a E) E
	// Mul returns a * b.
	Mul(a, b E) E
	// Inv returns the multiplicative inverse of a, or zero if a is zero.
	Inv(a E) E
	// Equal reports whether a and b represent the same field element.
	Equal(a, b E) bool
	// IsZero reports whether a is the additive identity.
	IsZero(a E) bool

	// AppendElem appends the fixed-width canonical encoding of a to dst.
	AppendElem(dst []byte, a E) []byte
	// ReadElem decodes one element from the front of src.
	ReadElem(src []byte) (E, error)
	// SampleElem draws a uniformly random element using entropy from r.
	SampleElem(r io.Reader) (E, error)

	// TwoAdicity returns the largest k such that 2^k divides p - 1.
	TwoAdicity() int
	// RootOfUnity returns a primitive 2^logN-th root of unity. It panics if
	// logN exceeds TwoAdicity. RootOfUnity(0) is One.
	RootOfUnity(logN int) E
}

// Pow returns a^e by square-and-multiply.
func Pow[Fd Field[E], E any](f Fd, a E, e uint64) E {
	r := f.One()
	base := a
	for e > 0 {
		if e&1 == 1 {
			r = f.Mul(r, base)
		}
		base = f.Mul(base, base)
		e >>= 1
	}
	return r
}

// PowBig returns a^e for a non-negative big integer exponent.
func PowBig[Fd Field[E], E any](f Fd, a E, e *big.Int) E {
	r := f.One()
	base := a
	for i := 0; i < e.BitLen(); i++ {
		if e.Bit(i) == 1 {
			r = f.Mul(r, base)
		}
		base = f.Mul(base, base)
	}
	return r
}

// InnerProduct returns the dot product of a and b, which must have equal
// length. It is the workhorse of SNIP verification (polynomial evaluation by
// precomputed Lagrange weights, and every Round1 output as a row of
// coefficients on a server's shares); over F64 it is DotSlice, with one
// deferred reduction.
func InnerProduct[Fd Field[E], E any](f Fd, a, b []E) E {
	if len(a) != len(b) {
		panic("field: InnerProduct length mismatch")
	}
	if _, ok := any(f).(F64); ok {
		return any(DotSlice(any(a).([]uint64), any(b).([]uint64))).(E)
	}
	acc := f.Zero()
	for i := range a {
		acc = f.Add(acc, f.Mul(a[i], b[i]))
	}
	return acc
}

// Sum returns the sum of the elements of a.
func Sum[Fd Field[E], E any](f Fd, a []E) E {
	acc := f.Zero()
	for _, v := range a {
		acc = f.Add(acc, v)
	}
	return acc
}

// AddVec adds src into dst element-wise: dst[i] += src[i]. The slices must
// have equal length. This is the server accumulator update; over F64 it is
// one monomorphic loop (AddSlice).
func AddVec[Fd Field[E], E any](f Fd, dst, src []E) {
	if len(dst) != len(src) {
		panic("field: AddVec length mismatch")
	}
	if _, ok := any(f).(F64); ok {
		d := any(dst).([]uint64)
		AddSlice(d, d, any(src).([]uint64))
		return
	}
	for i := range dst {
		dst[i] = f.Add(dst[i], src[i])
	}
}

// SubVec subtracts src from dst element-wise: dst[i] -= src[i].
func SubVec[Fd Field[E], E any](f Fd, dst, src []E) {
	if len(dst) != len(src) {
		panic("field: SubVec length mismatch")
	}
	for i := range dst {
		dst[i] = f.Sub(dst[i], src[i])
	}
}

// ScaleVec multiplies every element of dst by c in place.
func ScaleVec[Fd Field[E], E any](f Fd, dst []E, c E) {
	for i := range dst {
		dst[i] = f.Mul(dst[i], c)
	}
}

// EqualVec reports whether a and b are element-wise equal.
func EqualVec[Fd Field[E], E any](f Fd, a, b []E) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !f.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// SampleVec fills a fresh slice of n uniformly random elements from r. It
// reads r in bulk but consumes exactly what n SampleElem calls would (see
// SampleInto).
func SampleVec[Fd Field[E], E any](f Fd, r io.Reader, n int) ([]E, error) {
	out := make([]E, n)
	if err := SampleInto(f, r, out); err != nil {
		return nil, err
	}
	return out, nil
}

// AppendVec appends the canonical encodings of all elements of a to dst.
// Over F64 it grows dst once and encodes in one monomorphic loop — this is
// how clients write their shares onto the wire.
func AppendVec[Fd Field[E], E any](f Fd, dst []byte, a []E) []byte {
	if _, ok := any(f).(F64); ok {
		n := len(dst)
		dst = slices.Grow(dst, 8*len(a))[:n+8*len(a)]
		for i, v := range any(a).([]uint64) {
			binary.LittleEndian.PutUint64(dst[n+8*i:], v)
		}
		return dst
	}
	for _, v := range a {
		dst = f.AppendElem(dst, v)
	}
	return dst
}

// ReadVec decodes n elements from the front of src, returning the elements
// and the number of bytes consumed.
func ReadVec[Fd Field[E], E any](f Fd, src []byte, n int) ([]E, int, error) {
	if len(src) < n*f.ElemSize() {
		return nil, 0, ErrShortBuffer
	}
	out := make([]E, n)
	used, err := ReadInto(f, src, out)
	if err != nil {
		return nil, 0, err
	}
	return out, used, nil
}

// ReadInto decodes len(dst) elements from the front of src into dst,
// returning the number of bytes consumed. On error dst's contents are
// unspecified. Over F64 the decode and its canonical-range check run as one
// monomorphic loop — this is how servers materialize an explicit share.
func ReadInto[Fd Field[E], E any](f Fd, src []byte, dst []E) (int, error) {
	sz := f.ElemSize()
	if len(src) < len(dst)*sz {
		return 0, ErrShortBuffer
	}
	if _, ok := any(f).(F64); ok {
		d := any(dst).([]uint64)
		src = src[:8*len(d)]
		var over bool
		for i := range d {
			v := binary.LittleEndian.Uint64(src[8*i:])
			over = over || v >= ModulusF64
			d[i] = v
		}
		if over {
			return 0, ErrNonCanonical
		}
		return len(src), nil
	}
	for i := range dst {
		e, err := f.ReadElem(src[i*sz:])
		if err != nil {
			return 0, err
		}
		dst[i] = e
	}
	return len(dst) * sz, nil
}
