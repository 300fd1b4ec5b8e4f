package core

import (
	"bytes"
	"errors"
	"testing"

	"prio/internal/afe"
	"prio/internal/field"
	"prio/internal/prg"
	"prio/internal/sealbox"
	"prio/internal/snip"
)

// fuzzSeed is the challenge seed the fuzz targets' Round1 requests carry.
var fuzzSeed = prg.Seed{0xF0, 0x22}

// fuzzServer builds server idx of a 3-server sum8 deployment with a fixed
// sealbox key — the committed corpus holds boxes sealed to it.
func fuzzServer(tb testing.TB, idx int, seal bool) *Server[field.F64, uint64] {
	tb.Helper()
	f := field.NewF64()
	pro, err := NewProtocol(Config[field.F64, uint64]{
		Field: f, Scheme: afe.NewSum(f, 8), Servers: 3, Mode: ModeSNIP, SnipReps: 2, Seal: seal,
	})
	if err != nil {
		tb.Fatal(err)
	}
	priv, err := sealbox.ParsePrivateKey(bytes.Repeat([]byte{0x42}, 32))
	if err != nil {
		tb.Fatal(err)
	}
	srv, err := NewServer(pro, idx, priv)
	if err != nil {
		tb.Fatal(err)
	}
	return srv
}

// decodeBundle is handleRound1's decode of one bundle: its agreement, a
// batch of one, then decodeAgreed.
func (p *Protocol[Fd, E]) decodeBundle(bundle []byte, priv *sealbox.PrivateKey, idx int, dst []E) error {
	var agr *sealbox.Agreement
	if agrs := p.agree([][]byte{bundle}, priv); agrs != nil {
		agr = &agrs[0]
	}
	return p.decodeAgreed(bundle, agr, idx, dst)
}

// FuzzBundleDecode feeds arbitrary bytes to a server as a client's bundle,
// sealed and unsealed: decoding either errors or yields canonical elements
// that re-encode to the input, and Round1 verifies exactly that share — or
// the all-zero share when the bundle does not decode — without ever failing
// the request or panicking.
func FuzzBundleDecode(f *testing.F) {
	plain, sealed := fuzzServer(f, 1, false), fuzzServer(f, 1, true)
	fd := plain.pro.Cfg.Field
	flatLen := plain.pro.FlatLen()

	explicit := &wbuf{}
	explicit.u8(bundleExplicit)
	wvec(explicit, fd, make([]uint64, flatLen))
	explicit.b[1+8*3] = 7
	seed := append([]byte{bundleSeed}, bytes.Repeat([]byte{9}, prg.SeedSize)...)
	nonCanonical := append([]byte(nil), explicit.b...)
	copy(nonCanonical[len(nonCanonical)-8:], bytes.Repeat([]byte{0xFF}, 8))
	for _, b := range [][]byte{explicit.b, seed, nonCanonical, explicit.b[:len(explicit.b)-1], seed[:5], {0x7F, 1, 2}, nil} {
		f.Add(b, false)
		f.Add(b, true) // as a box: too short or unauthentic
		box, err := sealbox.Seal(sealed.PublicKey(), b)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(box, true)
	}
	// Seed servers' sealed bundles: an encapsulation to the fixed key, the
	// all-zero (low-order) point, and one byte short or long of either.
	encap := goldenEncap()
	for _, b := range [][]byte{encap, make([]byte, sealbox.EncapSize), encap[:sealbox.EncapSize-1], append(encap, 0)} {
		f.Add(b, true)
	}

	batchID := uint64(0)
	f.Fuzz(func(t *testing.T, bundle []byte, seal bool) {
		srv := plain
		if seal {
			srv = sealed
		}
		p := srv.pro
		dst := make([]uint64, flatLen)
		decErr := p.decodeBundle(bundle, srv.priv, srv.idx, dst)
		if decErr == nil {
			for i, v := range dst {
				if v >= field.ModulusF64 {
					t.Fatalf("decoded element %d = %d is not canonical", i, v)
				}
			}
			if !seal && bundle[0] == bundleExplicit && !bytes.Equal(field.AppendVec(fd, nil, dst), bundle[1:]) {
				t.Fatal("explicit bundle does not re-encode to its input")
			}
		} else {
			clear(dst)
		}

		batchID++
		w := &wbuf{}
		w.u32(1)
		w.u64(batchID)
		w.u32(1)
		w.raw(fuzzSeed[:])
		w.blob(bundle)
		resp, err := srv.Handle(MsgRound1, w.b)
		if err != nil {
			t.Fatalf("Round1 failed as a whole on one bundle (decode error: %v): %v", decErr, err)
		}
		if want := 2 * p.ValidSys.Reps * fd.ElemSize(); len(resp) != want {
			t.Fatalf("Round1 response is %d bytes, want %d", len(resp), want)
		}
		srv.mu.Lock()
		got := srv.batches[batchID].flats[0]
		srv.mu.Unlock()
		if !field.EqualVec(fd, got, dst) {
			t.Fatalf("Round1 verified a share that is neither the decoded one nor all-zero (decode error: %v)", decErr)
		}
		fin := &wbuf{}
		fin.u64(batchID)
		fin.blob([]byte{0})
		if _, err := srv.Handle(MsgFinish, fin.b); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzBatchProbe sends arbitrary MsgRound2Batch payloads to a server holding
// one live batch (challenge seed fuzzSeed, batch 1, two submissions), opened
// afresh for every input. Each input must be refused or answered with
// well-formed shares, never panic: a combined probe with one share whose
// value is the combination, under the λ derived from the seed and batch ID,
// of what a reveal then returns, a reveal with one share per submission. A reveal before any combined probe is a state error, and
// every probe kind other than the two is refused.
func FuzzBatchProbe(f *testing.F) {
	srv := fuzzServer(f, 1, false)
	p := srv.pro
	fd := p.Cfg.Field
	reps := p.ValidSys.Reps
	client, err := NewClient(p, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	scheme := p.Cfg.Scheme.(*afe.Sum[field.F64, uint64])
	round1 := &wbuf{}
	round1.u32(1)
	round1.u64(1)
	round1.u32(2)
	round1.raw(fuzzSeed[:])
	for _, v := range []uint64{3, 200} {
		enc, err := scheme.Encode(v)
		if err != nil {
			f.Fatal(err)
		}
		sub, err := client.BuildSubmission(enc)
		if err != nil {
			f.Fatal(err)
		}
		round1.blob(sub.Bundles[1])
	}
	const count = 2

	head := func(kind byte) *wbuf {
		w := &wbuf{}
		w.u32(1)
		w.u64(1)
		w.u8(kind)
		return w
	}
	combined := head(probeCombined)
	wvec(combined, fd, make([]uint64, 2*reps*count))
	for _, b := range [][]byte{
		combined.b,
		head(probeReveal).b, // before any combined probe
		head(0).b,           // the retired bisection's interior probe
		head(255).b,
		append(head(0).b[:13:13], combined.b[13:]...),
		combined.b[:len(combined.b)-1],
		append(combined.b, 0),
		append(head(probeReveal).b, 0),
		combined.b[:12],
		nil,
	} {
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, payload []byte) {
		if _, err := srv.Handle(MsgRound1, round1.b); err != nil {
			t.Fatal(err)
		}
		defer func() {
			fin := &wbuf{}
			fin.u64(1)
			fin.blob([]byte{0})
			if _, err := srv.Handle(MsgFinish, fin.b); err != nil {
				t.Fatal(err)
			}
		}()
		resp, err := srv.Handle(MsgRound2Batch, payload)
		if bytes.Equal(payload, head(probeReveal).b) && !errors.Is(err, snip.ErrBatchState) {
			t.Fatalf("reveal before the combined probe: err = %v, want %v", err, snip.ErrBatchState)
		}
		if err != nil {
			return
		}
		if len(payload) < 13 || payload[12] != probeCombined {
			t.Fatalf("a payload that is no combined probe was answered: %x", payload)
		}
		comb := readShares(t, fd, resp, 1, reps)[0]
		if resp, err = srv.Handle(MsgRound2Batch, head(probeReveal).b); err != nil {
			t.Fatalf("reveal after a combined probe: %v", err)
		}
		shares := readShares(t, fd, resp, count, reps)
		lambda := snip.RLCCoeffs(fd, deriveSeed(fuzzSeed, "rlc", 1), count)
		for k := 0; k <= reps; k++ {
			at := func(r *snip.Round2[uint64]) uint64 {
				if k == reps {
					return r.Tau
				}
				return r.Sigma[k]
			}
			want := fd.Zero()
			for j, s := range shares {
				want = fd.Add(want, fd.Mul(lambda[j], at(s)))
			}
			if at(comb) != want {
				t.Fatalf("combined share %d is %d, the λ-combination of the revealed shares is %d", k, at(comb), want)
			}
		}
	})
}

// readShares parses a probe reply as n Round2 shares of reps σ elements
// and one τ, failing on any other length or a non-canonical element.
func readShares(t *testing.T, fd field.F64, resp []byte, n, reps int) []*snip.Round2[uint64] {
	t.Helper()
	r := &rbuf{b: resp}
	out := make([]*snip.Round2[uint64], n)
	for j := range out {
		sig := rvec(r, fd, reps)
		tau := rvec(r, fd, 1)
		if r.err != nil {
			t.Fatalf("reply of %d bytes does not hold %d shares", len(resp), n)
		}
		out[j] = &snip.Round2[uint64]{Sigma: sig, Tau: tau[0]}
	}
	if !r.done() {
		t.Fatalf("reply of %d bytes holds more than %d shares", len(resp), n)
	}
	return out
}
