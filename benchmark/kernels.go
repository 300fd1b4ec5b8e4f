package main

import (
	crand "crypto/rand"
	"math/rand"
	"time"

	"prio"
	"prio/internal/field"
	"prio/internal/poly"
	"prio/internal/prg"
	"prio/internal/sealbox"
	"prio/internal/share"
	"prio/internal/snip"
)

// Kernel timers: direct calls into one layer's public functions, on one
// goroutine, at the shape the workload runs. They say what a layer costs
// when nothing contends with it; the spans say what it costs in place.

const (
	kernelReps  = 9  // timed repetitions; the median is reported
	kernelBatch = 16 // submissions per batch-verify call: the pipeline's MaxBatch
	// Slab kernels are timed over at least this many elements a repetition,
	// so the smallest shapes (32-element slabs) still outlast the clock's
	// resolution.
	slabElems = 1 << 16
)

// medianNS times fn kernelReps times and returns the median, in ns.
func medianNS(fn func()) float64 {
	t := make([]float64, kernelReps)
	for i := range t {
		t0 := time.Now()
		fn()
		t[i] = float64(time.Since(t0).Nanoseconds())
	}
	return quantile(t, 0.5)
}

// explicitBundle is the plaintext of a leader bundle as Client.BuildSubmission
// lays it out: a flag byte, then the share vector.
func explicitBundle(f prio.Field, share []uint64) []byte {
	return field.AppendVec(f, []byte{0}, share)
}

// clientKernels times the four steps of Client.BuildSubmission for one
// shape: AFE encoding, SNIP proof, seeded share splitting, sealing.
func clientKernels(scheme prio.Scheme, pro *prio.Protocol, pubs []*prio.ServerPublicKey, rng *rand.Rand) (map[string]float64, error) {
	f := prio.DefaultField()
	sys := pro.ValidSys
	var err error
	fail := func(e error) {
		if err == nil {
			err = e
		}
	}

	var enc []uint64
	encodeNS := medianNS(func() {
		var e error
		enc, e = encodeSeeded(scheme, rng)
		fail(e)
	})
	if err != nil {
		return nil, err
	}
	var pf *snip.Proof[uint64]
	proveNS := medianNS(func() {
		var e error
		pf, e = sys.Prove(enc, crand.Reader)
		fail(e)
	})
	if err != nil {
		return nil, err
	}
	flat := append(append([]uint64(nil), enc...), sys.FlattenProof(pf)...)
	var (
		seeds []prg.Seed
		last  []uint64
	)
	splitNS := medianNS(func() {
		var e error
		seeds, last, e = share.SplitSeeded(f, flat, len(pubs))
		fail(e)
	})
	if err != nil {
		return nil, err
	}
	bundles := [][]byte{explicitBundle(f, last)}
	for _, s := range seeds {
		bundles = append(bundles, append([]byte{1}, s[:]...))
	}
	sealNS := medianNS(func() {
		for i, b := range bundles {
			_, e := sealbox.Seal(pubs[i], b)
			fail(e)
		}
	})
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"afe.encode_us":   encodeNS / 1e3,
		"snip.prove_us":   proveNS / 1e3,
		"share.split_us":  splitNS / 1e3,
		"sealbox.seal_us": sealNS / 1e3, // every bundle of one submission
	}, nil
}

// serverKernels times what the servers run on a batch of prep's shape:
// unsealing, share expansion, the batch verifier's two passes, and the
// polynomial and slab kernels under them at the shape's own sizes.
func serverKernels(prep *prepared, rng *rand.Rand) (map[string]float64, error) {
	f := prio.DefaultField()
	pro, sys := prep.pro, prep.pro.ValidSys
	s, l := len(prep.privs), prep.scheme.K()
	out := map[string]float64{}

	// kernelBatch honest submissions, as each server sees them after
	// unsealing: shares[srv][j] is server srv's flat share of submission j.
	shares := make([][][]uint64, s)
	var seed0 prg.Seed
	var explicit0 []uint64
	for j := 0; j < kernelBatch; j++ {
		enc, err := encodeSeeded(prep.scheme, rng)
		if err != nil {
			return nil, err
		}
		pf, err := sys.Prove(enc, crand.Reader)
		if err != nil {
			return nil, err
		}
		flat := append(enc, sys.FlattenProof(pf)...)
		seeds, last, err := share.SplitSeeded(f, flat, s)
		if err != nil {
			return nil, err
		}
		shares[0] = append(shares[0], last)
		for i, sd := range seeds {
			shares[i+1] = append(shares[i+1], share.Expand(f, sd, pro.FlatLen()))
		}
		seed0, explicit0 = seeds[0], last
	}

	// Unsealing: one submission costs one open of the explicit bundle and
	// s-1 opens of a sealed seed; report the mean open.
	pubs := make([]*sealbox.PublicKey, s)
	for i, priv := range prep.privs {
		pubs[i] = priv.Public()
	}
	big, err := sealbox.Seal(pubs[0], explicitBundle(f, explicit0))
	if err != nil {
		return nil, err
	}
	small, err := sealbox.Seal(pubs[1], append([]byte{1}, seed0[:]...))
	if err != nil {
		return nil, err
	}
	bigNS := medianNS(func() { _, err = sealbox.Open(prep.privs[0], big) })
	if err != nil {
		return nil, err
	}
	smallNS := medianNS(func() { _, err = sealbox.Open(prep.privs[1], small) })
	if err != nil {
		return nil, err
	}
	out["sealbox.open_us"] = (bigNS + float64(s-1)*smallNS) / float64(s) / 1e3
	out["share.expand_ns_per_elem"] = medianNS(func() { share.Expand(f, seed0, pro.FlatLen()) }) / float64(pro.FlatLen())

	// Batch verification: Round1 on every server's shares (server 0's is the
	// one timed), the leader's opening, then the combined check.
	ch, err := sys.NewChallenge(crand.Reader)
	if err != nil {
		return nil, err
	}
	bv := sys.NewEvaluator(ch).Batch()
	xs := make([][][]uint64, s)
	pfs := make([][]*snip.Proof[uint64], s)
	for i := range shares {
		for _, sh := range shares[i] {
			pf, err := sys.UnflattenProof(sh[l:])
			if err != nil {
				return nil, err
			}
			xs[i] = append(xs[i], sh[:l])
			pfs[i] = append(pfs[i], pf)
		}
	}
	var st0 *snip.BatchState[uint64]
	msgs := make([][]*snip.Round1[uint64], s)
	r1NS := medianNS(func() { st0, msgs[0], err = bv.Round1(xs[0], pfs[0], true) })
	if err != nil {
		return nil, err
	}
	for i := 1; i < s; i++ {
		if _, msgs[i], err = bv.Round1(xs[i], pfs[i], false); err != nil {
			return nil, err
		}
	}
	opened := make([]*snip.Round1[uint64], kernelBatch)
	for j := range opened {
		col := make([]*snip.Round1[uint64], s)
		for i := range col {
			col[i] = msgs[i][j]
		}
		opened[j] = snip.SumRound1(f, col)
	}
	if err := bv.SetOpened(st0, opened, s); err != nil {
		return nil, err
	}
	var seed prg.Seed
	rng.Read(seed[:])
	lambda := snip.RLCCoeffs(f, seed, kernelBatch)
	combNS := medianNS(func() { _, err = bv.Combined(st0, lambda, 0, kernelBatch) })
	if err != nil {
		return nil, err
	}
	out["snip.batch_round1_us_per_sub"] = r1NS / kernelBatch / 1e3
	out["snip.combined_us_per_sub"] = combNS / kernelBatch / 1e3

	// The h polynomial lives on the 2N-point domain: that is the NTT the
	// prover runs, the weight table a challenge rotation builds, and the
	// slab length of the combined check.
	if sys.M > 0 {
		n := 2 * sys.N
		d := poly.NewDomain(f, sys.LogN+1)
		a, b := randSlab(rng, n), randSlab(rng, n)
		dst := make([]uint64, n)
		out["poly.ntt_us"] = medianNS(func() { d.NTT(a) }) / 1e3
		out["poly.eval_weights_us"] = medianNS(func() { d.EvalWeightsInto(a[0], dst, b) }) / 1e3

		a, b = randSlab(rng, n), randSlab(rng, n)
		rounds := (slabElems + n - 1) / n
		perElem := func(fn func()) float64 {
			return medianNS(func() {
				for r := 0; r < rounds; r++ {
					fn()
				}
			}) / float64(rounds*n)
		}
		var sink uint64
		a0, a1, a2 := make([]uint64, n), make([]uint64, n), make([]uint64, n)
		out["field.mul_slice_ns_per_elem"] = perElem(func() { field.MulSlice(dst, a, b) })
		out["field.dot_slice_ns_per_elem"] = perElem(func() { sink += field.DotSlice(a, b) })
		out["field.mulacc192_ns_per_elem"] = perElem(func() { field.MulAcc192(a0, a1, a2, a, b[0]) })
		_ = sink
	}
	return out, nil
}

// randSlab is n canonical field elements.
func randSlab(rng *rand.Rand, n int) []uint64 {
	f := prio.DefaultField()
	out := make([]uint64, n)
	for i := range out {
		out[i] = f.FromUint64(rng.Uint64())
	}
	return out
}
