package core

import (
	"bytes"
	"testing"

	"prio/internal/afe"
	"prio/internal/field"
	"prio/internal/prg"
	"prio/internal/sealbox"
)

// fuzzServer builds server idx of a 3-server sum8 deployment with a fixed
// sealbox key — the committed corpus holds boxes sealed to it — and installs
// challenge 1 so Round1 requests can be replayed against it.
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
	ch, err := pro.newChallenge()
	if err != nil {
		tb.Fatal(err)
	}
	w := &wbuf{}
	w.u32(1)
	w.raw(pro.marshalChallenge(ch))
	if _, err := srv.Handle(MsgSetChallenge, w.b); err != nil {
		tb.Fatal(err)
	}
	return srv
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
