package field

import (
	"encoding/binary"
	"io"
	"math/big"
	"math/bits"
)

// ModulusF64 is the "Goldilocks" prime 2^64 - 2^32 + 1.
//
// Its multiplicative group has two-adicity 32, so radix-2 NTTs of size up to
// 2^32 are available — far beyond the largest Valid circuit in the paper's
// evaluation (M = 8760 for the Tokyo cell grid).
const ModulusF64 uint64 = 18446744069414584321

// rootF64 is a primitive 2^32-th root of unity mod ModulusF64. It equals
// 7^((p-1)/2^32) mod p for the group generator 7.
const rootF64 uint64 = 1753635133440165772

// epsF64 is 2^32 - 1; note 2^64 ≡ epsF64 (mod p), the identity that drives
// the fast reduction below.
const epsF64 uint64 = 0xFFFFFFFF

// F64 is the Goldilocks field. Elements are uint64 values in [0, p).
// The zero value of F64 is ready to use.
type F64 struct{}

// NewF64 returns the Goldilocks field instance.
func NewF64() F64 { return F64{} }

// Name implements Field.
func (F64) Name() string { return "F64" }

// Bits implements Field.
func (F64) Bits() int { return 64 }

// ElemSize implements Field.
func (F64) ElemSize() int { return 8 }

// Modulus implements Field.
func (F64) Modulus() *big.Int { return new(big.Int).SetUint64(ModulusF64) }

// Zero implements Field.
func (F64) Zero() uint64 { return 0 }

// One implements Field.
func (F64) One() uint64 { return 1 }

// FromUint64 implements Field.
func (F64) FromUint64(v uint64) uint64 {
	if v >= ModulusF64 {
		v -= ModulusF64
	}
	return v
}

// FromInt64 implements Field.
func (f F64) FromInt64(v int64) uint64 {
	if v >= 0 {
		return f.FromUint64(uint64(v))
	}
	return f.Neg(f.FromUint64(uint64(-v)))
}

// FromBig implements Field.
func (F64) FromBig(v *big.Int) uint64 {
	m := new(big.Int).Mod(v, new(big.Int).SetUint64(ModulusF64))
	return m.Uint64()
}

// ToBig implements Field.
func (F64) ToBig(a uint64) *big.Int { return new(big.Int).SetUint64(a) }

// ToUint64 implements Field.
func (F64) ToUint64(a uint64) (uint64, bool) { return a, true }

// Add implements Field.
func (F64) Add(a, b uint64) uint64 {
	r, carry := bits.Add64(a, b, 0)
	if carry != 0 {
		// 2^64 ≡ eps, and r = a+b-2^64 < p-1, so r+eps cannot overflow.
		r += epsF64
	}
	if r >= ModulusF64 {
		r -= ModulusF64
	}
	return r
}

// Sub implements Field.
func (F64) Sub(a, b uint64) uint64 {
	r, borrow := bits.Sub64(a, b, 0)
	if borrow != 0 {
		// a-b+2^64 needs -2^64 ≡ -eps: r ≥ 2^64-p+1 > eps, so no underflow.
		r -= epsF64
	}
	return r
}

// Neg implements Field.
func (F64) Neg(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return ModulusF64 - a
}

// Mul implements Field.
func (F64) Mul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return reduce128(hi, lo)
}

// reduce128 reduces hi*2^64 + lo modulo the Goldilocks prime using the
// identities 2^64 ≡ 2^32 - 1 and 2^96 ≡ -1 (mod p). It is written tight
// enough that Mul stays under the compiler's inlining budget, so the F64
// loops that call Mul on the concrete type (poly's butterflies) inline it.
func reduce128(hi, lo uint64) uint64 {
	t0, borrow := bits.Sub64(lo, hi>>32, 0)
	if borrow != 0 {
		t0 -= epsF64
	}
	t2, carry := bits.Add64(t0, (hi&epsF64)*epsF64, 0)
	if carry != 0 {
		t2 += epsF64
	}
	if t2 >= ModulusF64 {
		t2 -= ModulusF64
	}
	return t2
}

// Inv implements Field. It computes a^(p-2) by square-and-multiply; Inv of
// zero returns zero.
func (f F64) Inv(a uint64) uint64 {
	if a == 0 {
		return 0
	}
	return Pow(f, a, ModulusF64-2)
}

// Equal implements Field.
func (F64) Equal(a, b uint64) bool { return a == b }

// IsZero implements Field.
func (F64) IsZero(a uint64) bool { return a == 0 }

// AppendElem implements Field (8-byte little-endian).
func (F64) AppendElem(dst []byte, a uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, a)
}

// ReadElem implements Field.
func (F64) ReadElem(src []byte) (uint64, error) {
	if len(src) < 8 {
		return 0, ErrShortBuffer
	}
	v := binary.LittleEndian.Uint64(src)
	if v >= ModulusF64 {
		return 0, ErrNonCanonical
	}
	return v, nil
}

// SampleElem implements Field by rejection sampling (rejection probability
// ≈ 2^-32 per draw).
func (F64) SampleElem(r io.Reader) (uint64, error) {
	var buf [8]byte
	for {
		if _, err := io.ReadFull(r, buf[:]); err != nil {
			return 0, err
		}
		v := binary.LittleEndian.Uint64(buf[:])
		if v < ModulusF64 {
			return v, nil
		}
	}
}

// TwoAdicity implements Field.
func (F64) TwoAdicity() int { return 32 }

// RootOfUnity implements Field.
func (f F64) RootOfUnity(logN int) uint64 {
	if logN < 0 || logN > 32 {
		panic("field: F64 root of unity order out of range")
	}
	r := rootF64
	for i := 32; i > logN; i-- {
		r = f.Mul(r, r)
	}
	return r
}
