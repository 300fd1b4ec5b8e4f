package x25519

import (
	"bytes"
	"crypto/ecdh"
	"encoding/hex"
	"math/big"
	"math/rand"
	"testing"
)

func hex32(tb testing.TB, s string) [32]byte {
	tb.Helper()
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 32 {
		tb.Fatalf("bad 32-byte hex %q", s)
	}
	return [32]byte(b)
}

// oracle is X25519 by crypto/ecdh, with the all-zero output for the inputs
// it refuses (RFC 7748 §6.1's check).
func oracle(tb testing.TB, scalar, u [32]byte) [32]byte {
	tb.Helper()
	k, err := ecdh.X25519().NewPrivateKey(scalar[:])
	if err != nil {
		tb.Fatal(err)
	}
	return oracleWith(tb, k, u)
}

func oracleWith(tb testing.TB, k *ecdh.PrivateKey, u [32]byte) [32]byte {
	tb.Helper()
	pk, err := ecdh.X25519().NewPublicKey(u[:])
	if err != nil {
		tb.Fatal(err)
	}
	s, err := k.ECDH(pk)
	if err != nil {
		return [32]byte{}
	}
	return [32]byte(s)
}

// batchSizes straddle batchStack (the stack-scratch limit) and 16, the
// encapsulations of one full Round1 batch.
var batchSizes = []int{1, 2, 15, 16, 17}

// check computes X25519(scalar, u) unbatched and, at every position, in
// each of batchSizes' batches of other points, and wants want every time.
func check(t *testing.T, name string, scalar, u, want [32]byte) {
	t.Helper()
	var got [32]byte
	ScalarMult(&got, &scalar, &u)
	if got != want {
		t.Errorf("%s: ScalarMult = %x, want %x", name, got, want)
	}
	for _, n := range batchSizes {
		pts := make([][32]byte, n)
		for i := range pts {
			pts[i] = Basepoint
		}
		for pos := 0; pos < n; pos++ {
			pts[pos] = u
			out := make([][32]byte, n)
			ScalarMultBatch(out, pts, &scalar)
			if out[pos] != want {
				t.Errorf("%s: position %d of a batch of %d = %x, want %x", name, pos, n, out[pos], want)
			}
			pts[pos] = Basepoint
		}
	}
}

// TestRFC7748Vectors: §5.2's two test vectors, and §6.1's Alice/Bob
// exchange, each batched and not, all agreeing with crypto/ecdh.
func TestRFC7748Vectors(t *testing.T) {
	vectors := []struct{ name, scalar, u, out string }{
		{"§5.2 vector 1",
			"a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
			"e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
			"c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"},
		{"§5.2 vector 2",
			"4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
			"e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
			"95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"},
		{"§6.1 Alice's public key",
			"77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
			"0900000000000000000000000000000000000000000000000000000000000000",
			"8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"},
		{"§6.1 Bob's public key",
			"5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
			"0900000000000000000000000000000000000000000000000000000000000000",
			"de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"},
		{"§6.1 Alice's shared secret",
			"77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
			"de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f",
			"4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"},
		{"§6.1 Bob's shared secret",
			"5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
			"8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a",
			"4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"},
	}
	for _, v := range vectors {
		scalar, u, want := hex32(t, v.scalar), hex32(t, v.u), hex32(t, v.out)
		if o := oracle(t, scalar, u); o != want {
			t.Fatalf("%s: crypto/ecdh gives %x, want %x", v.name, o, want)
		}
		check(t, v.name, scalar, u, want)
	}
}

// TestRFC7748Iterations: §5.2's iteration, k, u ← X25519(k, u), k from
// k = u = 9, after 1 and 1,000 rounds; the last round of each is also run
// batched.
func TestRFC7748Iterations(t *testing.T) {
	want := map[int][32]byte{
		1:    hex32(t, "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"),
		1000: hex32(t, "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"),
	}
	k, u := Basepoint, Basepoint
	for i := 1; i <= 1000; i++ {
		var r [32]byte
		ScalarMult(&r, &k, &u)
		if w, ok := want[i]; ok {
			if r != w {
				t.Errorf("after %d iterations: %x, want %x", i, r, w)
			}
			check(t, "iteration", k, u, w)
		}
		k, u = r, k
	}
}

// p is 2²⁵⁵ − 19.
var p = new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(19))

// encodeLE is n as 32 little-endian bytes; n must be below 2²⁵⁶.
func encodeLE(n *big.Int) [32]byte {
	var out [32]byte
	be := n.FillBytes(make([]byte, 32))
	for i := range be {
		out[i] = be[31-i]
	}
	return out
}

// TestDifferentialAgainstECDH: 10⁴ random (scalar, u) pairs, a quarter of
// them with bit 255 set and some u in [p, 2²⁵⁵), give crypto/ecdh's outputs
// batched (each batch one scalar, at sizes cycling through batchSizes) and
// unbatched.
func TestDifferentialAgainstECDH(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const pairs = 10000
	done := 0
	for b := 0; done < pairs; b++ {
		var scalar [32]byte
		rng.Read(scalar[:])
		k, err := ecdh.X25519().NewPrivateKey(scalar[:])
		if err != nil {
			t.Fatal(err)
		}
		n := batchSizes[b%len(batchSizes)]
		pts := make([][32]byte, n)
		for i := range pts {
			rng.Read(pts[i][:])
			switch (done + i) % 8 {
			case 0, 1:
				pts[i][31] |= 0x80
			case 2:
				// p + r for r < 19: an unreduced encoding of r.
				pts[i] = encodeLE(new(big.Int).Add(p, big.NewInt(int64(rng.Intn(19)))))
			default:
				pts[i][31] &= 0x7f
			}
		}
		out := make([][32]byte, n)
		ScalarMultBatch(out, pts, &scalar)
		for i, u := range pts {
			want := oracleWith(t, k, u)
			if out[i] != want {
				t.Fatalf("scalar %x, u %x at %d of %d: batch %x, want %x", scalar, u, i, n, out[i], want)
			}
			var one [32]byte
			ScalarMult(&one, &scalar, &u)
			if one != want {
				t.Fatalf("scalar %x, u %x: ScalarMult %x, want %x", scalar, u, one, want)
			}
		}
		done += n
	}
}

// lowOrder are the u-coordinates whose X25519 output is all zeros for every
// scalar (RFC 7748 §6.1): 0, 1, the two points of order 8, p − 1, p and
// p + 1. Each is also refused with bit 255 set.
var lowOrder = []string{
	"0000000000000000000000000000000000000000000000000000000000000000",
	"0100000000000000000000000000000000000000000000000000000000000000",
	"e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
	"5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
	"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
}

// TestLowOrderPointsStayIsolated: a low-order point's result is all zeros
// at every position of a 16-point batch, and its 15 neighbours still get
// crypto/ecdh's outputs: its zero Z does not reach the shared inversion.
func TestLowOrderPointsStayIsolated(t *testing.T) {
	scalar := hex32(t, "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
	k, err := ecdh.X25519().NewPrivateKey(scalar[:])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	const n = 16
	honest := make([][32]byte, n)
	want := make([][32]byte, n)
	for i := range honest {
		rng.Read(honest[i][:])
		want[i] = oracleWith(t, k, honest[i])
	}
	for _, s := range lowOrder {
		for _, high := range []byte{0, 0x80} {
			bad := hex32(t, s)
			bad[31] |= high
			if oracleWith(t, k, bad) != ([32]byte{}) {
				t.Fatalf("crypto/ecdh accepts %x", bad)
			}
			for pos := 0; pos < n; pos++ {
				pts := append([][32]byte(nil), honest...)
				pts[pos] = bad
				out := make([][32]byte, n)
				ScalarMultBatch(out, pts, &scalar)
				for i := range out {
					w := want[i]
					if i == pos {
						w = [32]byte{}
					}
					if out[i] != w {
						t.Errorf("u %x at %d: output %d = %x, want %x", bad, pos, i, out[i], w)
					}
				}
			}
		}
	}
}

func TestBatchAliasesAndEmpty(t *testing.T) {
	ScalarMultBatch(nil, nil, &Basepoint)
	pts := [][32]byte{Basepoint, hex32(t, lowOrder[2])}
	want := [][32]byte{oracle(t, Basepoint, pts[0]), {}}
	ScalarMultBatch(pts, pts, &Basepoint)
	if pts[0] != want[0] || pts[1] != want[1] {
		t.Errorf("in-place batch = %x, want %x", pts, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("mismatched lengths did not panic")
		}
	}()
	ScalarMultBatch(make([][32]byte, 1), pts, &Basepoint)
}

// Limb bounds of the lazy ladder (ladder.go). reducedMax is the largest limb
// of an output of Multiply, Square or Mult32; lazyMax the largest limb the
// ladder feeds them.
const (
	reducedMax = 1<<51 + 1<<24 - 1
	lazyMax    = 1<<53 - 1
)

func (v *Element) big() *big.Int {
	n := new(big.Int)
	for _, l := range []uint64{v.l4, v.l3, v.l2, v.l1, v.l0} {
		n.Lsh(n, 51)
		n.Add(n, new(big.Int).SetUint64(l))
	}
	return n
}

func (v *Element) maxLimb() uint64 {
	return max(v.l0, v.l1, v.l2, v.l3, v.l4)
}

func splat(l uint64) Element { return Element{l, l, l, l, l} }

func randElement(rng *rand.Rand, bound uint64) Element {
	return Element{rng.Uint64() % bound, rng.Uint64() % bound, rng.Uint64() % bound, rng.Uint64() % bound, rng.Uint64() % bound}
}

func modP(n *big.Int) *big.Int { return new(big.Int).Mod(n, p) }

// TestMultiplyAtLazyBound: Multiply and Square are exact against math/big
// for inputs at the lazy bound — every limb 2⁵³ − 1 — and below it, agree
// limb for limb with the generic code, and return reduced limbs.
func TestMultiplyAtLazyBound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inputs := []Element{splat(lazyMax), splat(reducedMax), {lazyMax, 0, lazyMax, 0, lazyMax}, {0, lazyMax, 0, lazyMax, 0}}
	for i := 0; i < 1000; i++ {
		inputs = append(inputs, randElement(rng, lazyMax+1))
	}
	for i := range inputs {
		for j := range inputs {
			if i > 4 && j > 4 && i != j {
				continue // random × random once each is plenty
			}
			a, b := inputs[i], inputs[j]
			var prod, sq Element
			prod.Multiply(&a, &b)
			sq.Square(&a)
			if modP(prod.big()).Cmp(modP(new(big.Int).Mul(a.big(), b.big()))) != 0 {
				t.Fatalf("Multiply(%v, %v) = %v, wrong mod p", a, b, prod)
			}
			if modP(sq.big()).Cmp(modP(new(big.Int).Mul(a.big(), a.big()))) != 0 {
				t.Fatalf("Square(%v) = %v, wrong mod p", a, sq)
			}
			// The generic code is what every other GOARCH runs: the same
			// algorithm as the amd64 assembly, so the same limbs.
			var gProd, gSq Element
			feMulGeneric(&gProd, &a, &b)
			feSquareGeneric(&gSq, &a)
			if gProd != prod || gSq != sq {
				t.Fatalf("generic Multiply or Square of %v, %v = %v, %v; want %v, %v", a, b, gProd, gSq, prod, sq)
			}
			if prod.maxLimb() > reducedMax || sq.maxLimb() > reducedMax {
				t.Fatalf("Multiply or Square of %v, %v leaves a limb above 2⁵¹ + 2²⁴: %v, %v", a, b, prod, sq)
			}
		}
	}
}

// TestMult32AtLazyBound: Mult32 by the ladder's constant is exact at the lazy
// bound and returns reduced limbs.
func TestMult32AtLazyBound(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inputs := []Element{splat(lazyMax)}
	for i := 0; i < 1000; i++ {
		inputs = append(inputs, randElement(rng, lazyMax+1))
	}
	for _, a := range inputs {
		var v Element
		v.Mult32(&a, 121666)
		if modP(v.big()).Cmp(modP(new(big.Int).Mul(a.big(), big.NewInt(121666)))) != 0 {
			t.Fatalf("Mult32(%v) = %v, wrong mod p", a, v)
		}
		if v.maxLimb() > reducedMax {
			t.Fatalf("Mult32(%v) leaves a limb above 2⁵¹ + 2²⁴: %v", a, v)
		}
	}
}

// TestLazyAddSubBound: addLazy and subLazy of reduced inputs at their
// extremes are exact mod p (subLazy never underflows) and stay within the
// lazy bound.
func TestLazyAddSubBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inputs := []Element{splat(reducedMax), {}, {reducedMax, 0, reducedMax, 0, reducedMax}, {0, reducedMax, 0, reducedMax, 0}}
	for i := 0; i < 100; i++ {
		inputs = append(inputs, randElement(rng, reducedMax+1))
	}
	for _, a := range inputs {
		for _, b := range inputs {
			var sum, diff Element
			sum.addLazy(&a, &b)
			diff.subLazy(&a, &b)
			if modP(sum.big()).Cmp(modP(new(big.Int).Add(a.big(), b.big()))) != 0 {
				t.Fatalf("addLazy(%v, %v) = %v, wrong mod p", a, b, sum)
			}
			if modP(diff.big()).Cmp(modP(new(big.Int).Sub(a.big(), b.big()))) != 0 {
				t.Fatalf("subLazy(%v, %v) = %v, wrong mod p", a, b, diff)
			}
			if sum.maxLimb() > lazyMax || diff.maxLimb() > lazyMax {
				t.Fatalf("lazy sum or difference of %v, %v above 2⁵³: %v, %v", a, b, sum, diff)
			}
		}
	}
}

// TestLadderStepAtBound: one ladder step from registers at the reduced
// bound, and x1 at SetBytes' largest limbs, is exact against RFC 7748's
// formulas in math/big and leaves reduced registers.
func TestLadderStepAtBound(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		regs := [5]Element{splat(1<<51 - 1), splat(reducedMax), splat(reducedMax), splat(reducedMax), splat(reducedMax)}
		if i > 0 {
			regs[0] = randElement(rng, 1<<51)
			for j := 1; j < 5; j++ {
				regs[j] = randElement(rng, reducedMax+1)
			}
		}
		x1, x2, z2, x3, z3 := regs[0].big(), regs[1].big(), regs[2].big(), regs[3].big(), regs[4].big()
		ladderStep(&regs[0], &regs[1], &regs[2], &regs[3], &regs[4])

		mul := func(a, b *big.Int) *big.Int { return modP(new(big.Int).Mul(a, b)) }
		a := modP(new(big.Int).Add(x2, z2))
		aa := mul(a, a)
		b := modP(new(big.Int).Sub(x2, z2))
		bb := mul(b, b)
		e := modP(new(big.Int).Sub(aa, bb))
		c := modP(new(big.Int).Add(x3, z3))
		d := modP(new(big.Int).Sub(x3, z3))
		da, cb := mul(d, a), mul(c, b)
		sum, diff := modP(new(big.Int).Add(da, cb)), modP(new(big.Int).Sub(da, cb))
		want := [4]*big.Int{
			mul(aa, bb), // x2
			mul(e, modP(new(big.Int).Add(aa, mul(big.NewInt(121665), e)))), // z2
			mul(sum, sum),            // x3
			mul(x1, mul(diff, diff)), // z3
		}
		for j, w := range want {
			got := &regs[j+1]
			if modP(got.big()).Cmp(w) != 0 {
				t.Fatalf("step %d: register %d wrong mod p", i, j+1)
			}
			if got.maxLimb() > reducedMax {
				t.Fatalf("step %d: register %d = %v is not reduced", i, j+1, got)
			}
		}
	}
}

// FuzzX25519 checks X25519(scalar, u) against crypto/ecdh at position pos of
// a batch of 17 (batchStack exceeded), whose other points are multiples of
// the base point, and unbatched.
func FuzzX25519(f *testing.F) {
	seeds := [][2]string{
		{"a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4", "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"},
		{"4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d", "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493"},
		{"77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a", "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"},
		{"5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb", "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"},
		{"0900000000000000000000000000000000000000000000000000000000000000", "0900000000000000000000000000000000000000000000000000000000000000"},
	}
	for _, lo := range lowOrder {
		seeds = append(seeds, [2]string{seeds[0][0], lo})
	}
	for i, s := range seeds {
		scalar, u := hex32(f, s[0]), hex32(f, s[1])
		f.Add(scalar[:], u[:], uint8(i))
		u[31] |= 0x80
		f.Add(scalar[:], u[:], uint8(16-i))
	}
	f.Fuzz(func(t *testing.T, scalarBytes, uBytes []byte, pos uint8) {
		var scalar, u [32]byte
		copy(scalar[:], scalarBytes)
		copy(u[:], uBytes)
		k, err := ecdh.X25519().NewPrivateKey(scalar[:])
		if err != nil {
			t.Fatal(err)
		}
		const n = 17
		pts := make([][32]byte, n)
		for i := range pts {
			pts[i] = Basepoint
			pts[i][1] = byte(i) // distinct points, none of low order
		}
		at := int(pos) % n
		pts[at] = u
		out := make([][32]byte, n)
		ScalarMultBatch(out, pts, &scalar)
		for i := range pts {
			if want := oracleWith(t, k, pts[i]); out[i] != want {
				t.Fatalf("scalar %x, u %x at %d of %d: %x, want %x", scalar, pts[i], i, n, out[i], want)
			}
		}
		var one [32]byte
		ScalarMult(&one, &scalar, &u)
		if !bytes.Equal(one[:], out[at][:]) {
			t.Fatalf("scalar %x, u %x: ScalarMult %x, batched %x", scalar, u, one, out[at])
		}
	})
}

func BenchmarkScalarMult(b *testing.B) {
	scalar := hex32(b, "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4")
	u := hex32(b, "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c")
	b.Run("x25519", func(b *testing.B) {
		var out [32]byte
		for i := 0; i < b.N; i++ {
			ScalarMult(&out, &scalar, &u)
		}
	})
	b.Run("batch16", func(b *testing.B) {
		pts := make([][32]byte, 16)
		for i := range pts {
			pts[i] = u
		}
		out := make([][32]byte, 16)
		for i := 0; i < b.N; i++ {
			ScalarMultBatch(out, pts, &scalar)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(16*b.N), "ns/point")
	})
	b.Run("crypto-ecdh", func(b *testing.B) {
		k, _ := ecdh.X25519().NewPrivateKey(scalar[:])
		pk, _ := ecdh.X25519().NewPublicKey(u[:])
		for i := 0; i < b.N; i++ {
			if _, err := k.ECDH(pk); err != nil {
				b.Fatal(err)
			}
		}
	})
}
