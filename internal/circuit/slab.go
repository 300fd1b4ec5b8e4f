package circuit

import "prio/internal/field"

// EvalSharesBatchF64 is the gate-major, slab-vectorized counterpart of
// EvalShares over the Goldilocks field: it walks the circuit once for a whole
// batch of b = len(xShares) submissions, with every wire holding a
// lane-per-submission slab. Gate dispatch is paid once per gate instead of
// once per gate per submission, and the per-lane arithmetic runs through the
// monomorphic field kernels instead of the generics dictionary.
//
// All wires live in the one caller-owned slab w of length len(Gates)·b: gate
// i's lanes are w[i·b : (i+1)·b]. Before the call the caller writes each
// multiplication gate's lanes with the submissions' shares of h(ω_{t+1}) for
// that gate; the walk leaves those lanes alone, gathers xShares[i] (length
// NumInputs) straight into the OpInput lanes, and computes every affine
// gate, so every other lane of w may start uninitialized. Afterwards the U
// and V operands of multiplication gate t are the lanes of wires
// Gates[MulGates[t]].A and .B, and assertion k's shares are the lanes of
// wire Asserts[k].
func EvalSharesBatchF64(c *Circuit[uint64], w []uint64, xShares [][]uint64, includeConst bool) {
	b := len(xShares)
	for _, x := range xShares {
		if len(x) != c.NumInputs {
			panic("circuit: EvalSharesBatchF64 input length mismatch")
		}
	}
	if len(w) != len(c.Gates)*b {
		panic("circuit: EvalSharesBatchF64 wire slab length mismatch")
	}
	lane := func(i int) []uint64 { return w[i*b : (i+1)*b : (i+1)*b] }
	for i, g := range c.Gates {
		switch g.Op {
		case OpInput:
			// Consecutive input gates read consecutive offsets of each
			// submission's share, which stay cache-resident across gates.
			dst := lane(i)
			for j, x := range xShares {
				dst[j] = x[g.A]
			}
		case OpConst:
			dst := lane(i)
			if includeConst {
				for j := range dst {
					dst[j] = g.K
				}
			} else {
				clear(dst)
			}
		case OpAdd:
			field.AddSlice(lane(i), lane(g.A), lane(g.B))
		case OpSub:
			field.SubSlice(lane(i), lane(g.A), lane(g.B))
		case OpMul:
			// Filled by the caller with the h shares.
		case OpMulConst:
			field.ScaleSlice(lane(i), lane(g.A), g.K)
		}
	}
}
