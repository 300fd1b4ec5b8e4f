package x25519

// The eight-lane ladder.
//
// ScalarMultBatch runs all of its ladders under one scalar, so every ladder
// takes the same sequence of conditional swaps. On amd64 CPUs with AVX-512
// IFMA (ladder8_amd64.s) eight ladders therefore run as one: lane l of each
// ZMM word holds point l's limb, the swap is a blend under a mask broadcast
// from the shared swap flag, and no lane can diverge from another. The
// ladder stays constant time in the scalar: its instructions, and the
// addresses they touch, are the same for every flag value.
//
// The carried limb bound.
//
// IFMA multiplies only the low 52 bits of each 64-bit lane, so the lazy
// bound of the scalar ladder (sums below 2⁵³ fed to Multiply) would lose
// bits here. The vector ladder instead carries every value it stores: each
// limb below 2⁵¹ + 2¹⁴, "carried". A carry pass (CARRY in the assembly)
// takes the carry out of every limb at once, r_i>>51, keeps the low 51
// bits, adds the carry from the limb below and 19 times the carry out of
// limb 4 to limb 0. From limbs below 2⁶⁰ it leaves carries below 2⁹, so
// limbs below 2⁵¹ + 2⁹ and limb 0 below 2⁵¹ + 19·2⁹ < 2⁵¹ + 2¹⁴.
//
//   - A product of carried a and b: each a_i·b_j < 2¹⁰³ splits into a low
//     half below 2⁵² at position i+j and a high half below 2⁵⁰ + 2¹⁵ at
//     position i+j+1, weighing twice its low half. At most five products
//     meet at a position (a square's doubled cross products count twice),
//     so position k holds t_k = L_k + 2·H_k < 2⁵⁵, and the reduction
//     t_j + 19·t_{j+5} < 20·2⁵⁵ < 2⁶⁰. One carry pass leaves it carried.
//   - a + b of carried values is below 2⁵³, and so is a − b + 2p: 2p's limbs,
//     2⁵² − 38 and 2⁵² − 2, exceed a carried limb, so nothing underflows.
//     One carry pass leaves each carried.
//   - b + 121666·a: the low halves of 121666·a_i are below 2⁵², the high
//     halves below 2¹⁷, so the sum is below 2⁵³ and one carry pass leaves it
//     carried.
//
// Every operand the multiplications read is thus carried, below 2⁵², and
// every input the ladder starts from (SetBytes' limbs below 2⁵¹, 0 and 1)
// is carried. The results are valid inputs of the Go field code, whose
// bound is 2⁵⁴. x25519_test.go checks one step at the carried bound
// against math/big.

// lanes is the width of the vector ladder, and the number of points
// ScalarMultBatch normalises with one inversion.
const lanes = 8

// vectorCrossover is the smallest run of points the vector ladder takes:
// below it, that many scalar ladders cost less than one vector ladder
// (BenchmarkScalarMult).
const vectorCrossover = 2

// vectorFrom is the smallest run of points ScalarMultBatch gives the vector
// ladder, or 0 for none: vectorCrossover where the CPU has the vector
// ladder. Tests set it to force either path.
var vectorFrom = func() int {
	if hasIFMA() {
		return vectorCrossover
	}
	return 0
}()

// vec8 is a field element in each of eight lanes, limb-sliced: vec8[i][l]
// is limb i of lane l.
type vec8 [5][lanes]uint64

func (v *vec8) set(l int, e *Element) {
	v[0][l], v[1][l], v[2][l], v[3][l], v[4][l] = e.l0, e.l1, e.l2, e.l3, e.l4
}

func (v *vec8) get(l int, e *Element) {
	e.l0, e.l1, e.l2, e.l3, e.l4 = v[0][l], v[1][l], v[2][l], v[3][l], v[4][l]
}

// ladderState8 is the state of eight ladders, in the order ladder8 keeps
// them in its frame.
type ladderState8 struct {
	x1, x2, z2, x3, z3 vec8
}

// swapFlags sets flags to the conditional swap before each step of the
// ladder for the clamped scalar e, bit 254 first, and returns the swap after
// the last step: k_t XOR k_{t+1}, as RFC 7748 §5 accumulates it.
func swapFlags(flags *[255]uint64, e *[32]byte) int {
	var prev uint64
	for pos := 254; pos >= 0; pos-- {
		b := uint64(e[pos/8]>>uint(pos&7)) & 1
		flags[254-pos] = b ^ prev
		prev = b
	}
	return int(prev)
}

// ladderVector sets (xs[i]:zs[i]) to the projective result of the ladder for
// points[i], for up to eight points, as ladder does for one; flags and final
// are swapFlags' for the scalar. Lanes past len(points) run on the base
// point and are discarded.
func ladderVector(xs, zs []Element, points [][32]byte, flags *[255]uint64, final int) {
	var st ladderState8
	for l := 0; l < lanes; l++ {
		var u Element
		if l < len(points) {
			u.SetBytes(&points[l])
		} else {
			u.SetBytes(&Basepoint)
		}
		st.x1.set(l, &u)
		st.x2.set(l, feOne)
		st.x3.set(l, &u)
		st.z3.set(l, feOne)
	}
	ladder8(&st, flags[:])
	for l := range points {
		var x3, z3 Element
		st.x2.get(l, &xs[l])
		st.z2.get(l, &zs[l])
		st.x3.get(l, &x3)
		st.z3.get(l, &z3)
		xs[l].Swap(&x3, final)
		zs[l].Swap(&z3, final)
	}
}
