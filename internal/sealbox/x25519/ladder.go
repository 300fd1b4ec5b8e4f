// Package x25519 is the X25519 function of RFC 7748 over Go's own
// GF(2²⁵⁵−19) arithmetic, for internal/sealbox: a Montgomery ladder whose
// additions and subtractions skip the carry pass, and a batch call that runs
// many ladders under one scalar and normalises them with one shared
// inversion.
//
// The field code (fe.go, fe_generic.go, fe_amd64.go, fe_amd64.s,
// fe_amd64_noasm.go) is copied from Go's
// crypto/internal/fips140/edwards25519/field, under the BSD licence in this
// directory's LICENSE file; fe.go lists what was cut or changed. The amd64
// multiply and square are its avo-generated assembly, unchanged; every
// other GOARCH, and the purego build tag, uses its generic Go.
package x25519

// The lazy limb bound.
//
// Go's field code keeps every limb below 2⁵² between operations, and its Add
// and Subtract end in a carry pass to restore that. The ladder skips those
// passes, because each of its sums and differences is consumed only by
// Multiply, Square or Mult32, which are exact for input limbs below 2⁵⁴:
//
//   - Multiply and Square (generic and amd64 alike) accumulate each output
//     coefficient in 128 bits. With inputs below 2ᴬ per limb the largest,
//     r0 = a0·b0 + 19·(four products), is below 77·2²ᴬ; the first carry chain
//     needs it below 2¹¹⁵, and 19 times the top carry (r4 < 5·2²ᴬ, shifted
//     down 51) to fit 64 bits. Both hold for A ≤ 54. Their outputs are below
//     2⁵¹ + 2¹⁸ per limb.
//   - Mult32 by 121666 < 2¹⁷ of inputs below 2⁵³ gives limbs below
//     2⁵¹ + 19·2¹⁹ < 2⁵¹ + 2²⁴.
//
// So every value the ladder keeps in a register is "reduced": below
// 2⁵¹ + 2²⁴ per limb. addLazy of two reduced values is below 2⁵³ per limb.
// subLazy adds 2p limb by limb first (2⁵² − 38 and 2⁵² − 2, each above a
// reduced limb, so nothing underflows) and is below 2⁵³ too. Every input of
// Multiply, Square and Mult32 in ladderStep is thus below 2⁵³ per limb: one
// bit of margin. x25519_test.go checks each link of this argument at its
// extreme, and the multiply and square at the 2⁵³ bound against math/big.

// addLazy sets v = a + b without a carry pass. a and b must be reduced.
func (v *Element) addLazy(a, b *Element) *Element {
	v.l0 = a.l0 + b.l0
	v.l1 = a.l1 + b.l1
	v.l2 = a.l2 + b.l2
	v.l3 = a.l3 + b.l3
	v.l4 = a.l4 + b.l4
	return v
}

// subLazy sets v = a − b + 2p without a carry pass. a and b must be reduced.
func (v *Element) subLazy(a, b *Element) *Element {
	v.l0 = (a.l0 + 0xFFFFFFFFFFFDA) - b.l0
	v.l1 = (a.l1 + 0xFFFFFFFFFFFFE) - b.l1
	v.l2 = (a.l2 + 0xFFFFFFFFFFFFE) - b.l2
	v.l3 = (a.l3 + 0xFFFFFFFFFFFFE) - b.l3
	v.l4 = (a.l4 + 0xFFFFFFFFFFFFE) - b.l4
	return v
}

// isZero returns 1 if v ≡ 0 (mod p) and 0 otherwise, in constant time.
func (v *Element) isZero() int {
	var b [32]byte
	v.Bytes(&b)
	var acc byte
	for _, x := range b {
		acc |= x
	}
	return int((uint32(acc) - 1) >> 31)
}

// ladderStep is one step of the RFC 7748 §5 Montgomery ladder, the
// differential addition and doubling of (x2:z2) and (x3:z3) with difference
// x1, written as Go's crypto/ecdh writes it but with carry-free additions
// and subtractions (see the lazy limb bound above). x2, z2, x3 and z3 must be
// reduced, and are on return.
func ladderStep(x1, x2, z2, x3, z3 *Element) {
	var tmp0, tmp1 Element
	tmp0.subLazy(x3, z3)
	tmp1.subLazy(x2, z2)
	x2.addLazy(x2, z2)
	z2.addLazy(x3, z3)
	z3.Multiply(&tmp0, x2)
	z2.Multiply(z2, &tmp1)
	tmp0.Square(&tmp1)
	tmp1.Square(x2)
	x3.addLazy(z3, z2)
	z2.subLazy(z3, z2)
	x2.Multiply(&tmp1, &tmp0)
	tmp1.subLazy(&tmp1, &tmp0)
	z2.Square(z2)
	z3.Mult32(&tmp1, 121666)
	x3.Square(x3)
	tmp0.addLazy(&tmp0, z3)
	z3.Multiply(x1, z2)
	z2.Multiply(&tmp1, &tmp0)
}

// ladder sets (x:z) to the projective u-coordinate of the clamped scalar e
// times point, in constant time.
func ladder(x, z *Element, e, point *[32]byte) {
	var x1, x2, z2, x3, z3 Element
	x1.SetBytes(point)
	x2.One()
	x3.Set(&x1)
	z3.One()

	swap := 0
	for pos := 254; pos >= 0; pos-- {
		b := int(e[pos/8]>>uint(pos&7)) & 1
		swap ^= b
		x2.Swap(&x3, swap)
		z2.Swap(&z3, swap)
		swap = b
		ladderStep(&x1, &x2, &z2, &x3, &z3)
	}
	x2.Swap(&x3, swap)
	z2.Swap(&z3, swap)
	*x, *z = x2, z2
}

// Basepoint is the u-coordinate 9 of the Curve25519 base point.
var Basepoint = [32]byte{9}

// ScalarMult sets dst to X25519(scalar, point): a batch of one.
func ScalarMult(dst, scalar, point *[32]byte) {
	b := [1][32]byte{*point}
	ScalarMultBatch(b[:], b[:], scalar)
	*dst = b[0]
}

// batchStack is the largest batch whose scratch stays on the stack.
const batchStack = 8

// ScalarMultBatch sets dst[i] to X25519(scalar, points[i]) for every i, with
// one field inversion for the whole batch (Montgomery's simultaneous
// inversion) instead of one per point. dst and points must have the same
// length and may be the same slice.
//
// A low-order point's ladder ends at the identity, Z = 0, which would zero
// the running product and with it every result of the batch. Each Z is
// therefore tested and, when zero, replaced by one (and its X by zero) with
// a constant-time select, so that point's result is the all-zero output
// X25519 defines for it and the other points' results are unaffected. The
// work done is the same for every input: the ladders are constant time in
// the scalar, and the normalisation's sequence of operations depends only
// on len(points).
func ScalarMultBatch(dst, points [][32]byte, scalar *[32]byte) {
	if len(dst) != len(points) {
		panic("x25519: dst and points differ in length")
	}
	n := len(points)
	if n == 0 {
		return
	}
	e := *scalar
	e[0] &= 248
	e[31] &= 127
	e[31] |= 64

	var stack [3 * batchStack]Element
	scratch := stack[:]
	if n > batchStack {
		scratch = make([]Element, 3*n)
	}
	xs, zs, prods := scratch[:n], scratch[n:2*n], scratch[2*n:3*n]
	for i := range points {
		ladder(&xs[i], &zs[i], &e, &points[i])
		zero := zs[i].isZero()
		xs[i].Select(feZero, &xs[i], zero)
		zs[i].Select(feOne, &zs[i], zero)
		if i == 0 {
			prods[0] = zs[0]
		} else {
			prods[i].Multiply(&prods[i-1], &zs[i])
		}
	}

	// inv is 1/(z_0 ⋯ z_i) as i walks down; 1/z_i = inv · (z_0 ⋯ z_{i-1}).
	var inv, zInv Element
	inv.Invert(&prods[n-1])
	for i := n - 1; i > 0; i-- {
		zInv.Multiply(&inv, &prods[i-1])
		inv.Multiply(&inv, &zs[i])
		xs[i].Multiply(&xs[i], &zInv)
	}
	xs[0].Multiply(&xs[0], &inv)
	for i := range xs {
		xs[i].Bytes(&dst[i])
	}
}
