// Package share implements the s-out-of-s additive secret-sharing scheme of
// Section 3: a vector x ∈ F^L is split into s random vectors that sum to x.
// Any s-1 shares are independent of x, which is the entire privacy argument
// of the basic Prio scheme.
//
// The package also provides the PRG-compressed variant of Appendix I
// (optimization 1), where the first s-1 shares are 16-byte PRG seeds, and an
// XOR-sharing variant for the F_2^λ boolean encodings of Section 5.2.
package share

import (
	"crypto/rand"
	"errors"
	"io"

	"prio/internal/field"
	"prio/internal/prg"
)

// ErrBadShareCount is returned when a split or reconstruction is requested
// with fewer than one share.
var ErrBadShareCount = errors.New("share: need at least 1 share")

// Split divides x into s additive shares using entropy from rnd: the first
// s-1 shares are uniformly random and the last is x minus their sum. The
// input is not modified.
func Split[Fd field.Field[E], E any](f Fd, rnd io.Reader, x []E, s int) ([][]E, error) {
	if s < 1 {
		return nil, ErrBadShareCount
	}
	shares := make([][]E, s)
	last := append([]E(nil), x...)
	for i := 0; i < s-1; i++ {
		sh, err := field.SampleVec(f, rnd, len(x))
		if err != nil {
			return nil, err
		}
		shares[i] = sh
		field.SubVec(f, last, sh)
	}
	shares[s-1] = last
	return shares, nil
}

// Reconstruct sums the given shares, recovering the secret vector. All shares
// must have equal length.
func Reconstruct[Fd field.Field[E], E any](f Fd, shares ...[]E) []E {
	if len(shares) == 0 {
		return nil
	}
	out := append([]E(nil), shares[0]...)
	for _, sh := range shares[1:] {
		field.AddVec(f, out, sh)
	}
	return out
}

// Expand deterministically derives an n-element share vector from a PRG seed.
// It is how servers holding a seeded share materialize their field elements.
//
// The stream is a compatibility contract between clients and servers of any
// version: AES-128-CTR keyed by the seed under a zero IV, cut into
// consecutive ElemSize-byte draws (little-endian words for F64), a draw
// outside [0, p) skipped.
func Expand[Fd field.Field[E], E any](f Fd, seed prg.Seed, n int) []E {
	out := make([]E, n)
	ExpandInto(f, seed, out)
	return out
}

// ExpandInto is Expand into a caller-provided vector (a pooled slab on the
// servers' Round1 path): it overwrites every element of dst.
func ExpandInto[Fd field.Field[E], E any](f Fd, seed prg.Seed, dst []E) {
	mustSample(f, prg.New(seed), dst)
}

// mustSample fills dst from a PRG, which never fails.
func mustSample[Fd field.Field[E], E any](f Fd, g *prg.PRG, dst []E) {
	if err := field.SampleInto(f, g, dst); err != nil {
		panic("share: " + err.Error())
	}
}

// splitChunk is how many elements of a seed's expansion SplitSeeded holds at
// a time while subtracting it from the explicit share.
const splitChunk = 512

// SplitSeeded divides x into s shares where the first s-1 are PRG seeds
// (Appendix I, optimization 1). Server i < s-1 expands its seed with Expand;
// server s-1 receives the explicit vector.
func SplitSeeded[Fd field.Field[E], E any](f Fd, x []E, s int) ([]prg.Seed, []E, error) {
	if s < 1 {
		return nil, nil, ErrBadShareCount
	}
	seeds := make([]prg.Seed, s-1)
	last := append([]E(nil), x...)
	// Each expansion is subtracted as it streams out of the PRG; consecutive
	// SampleInto calls on one PRG continue the same element stream.
	chunk := make([]E, min(len(x), splitChunk))
	for i := range seeds {
		seed, err := prg.NewSeed()
		if err != nil {
			return nil, nil, err
		}
		seeds[i] = seed
		g := prg.New(seed)
		for rest := last; len(rest) > 0; {
			c := chunk[:min(len(rest), len(chunk))]
			mustSample(f, g, c)
			field.SubVec(f, rest[:len(c)], c)
			rest = rest[len(c):]
		}
	}
	return seeds, last, nil
}

// XorSplit divides a packed bitset (len(words)*64 bits) into s XOR shares.
// It is used by the boolean OR/AND encodings, which aggregate in F_2^λ.
func XorSplit(words []uint64, s int) ([][]uint64, error) {
	if s < 1 {
		return nil, ErrBadShareCount
	}
	shares := make([][]uint64, s)
	last := append([]uint64(nil), words...)
	buf := make([]byte, 8*len(words))
	for i := 0; i < s-1; i++ {
		if _, err := io.ReadFull(rand.Reader, buf); err != nil {
			return nil, err
		}
		sh := make([]uint64, len(words))
		for j := range sh {
			sh[j] = leUint64(buf[8*j:])
			last[j] ^= sh[j]
		}
		shares[i] = sh
	}
	shares[s-1] = last
	return shares, nil
}

// XorReconstruct XORs the given shares together, recovering the bitset.
func XorReconstruct(shares ...[]uint64) []uint64 {
	if len(shares) == 0 {
		return nil
	}
	out := append([]uint64(nil), shares[0]...)
	for _, sh := range shares[1:] {
		for j := range out {
			out[j] ^= sh[j]
		}
	}
	return out
}

func leUint64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
