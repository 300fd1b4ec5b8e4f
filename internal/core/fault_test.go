package core

import (
	"crypto/rand"
	"sync/atomic"
	"testing"

	"prio/internal/afe"
	"prio/internal/dp"
	"prio/internal/field"
	"prio/internal/prg"
	"prio/internal/sealbox"
)

// Fault-injection tests: malformed messages, protocol-order violations, and
// byzantine bundles must produce errors (or rejections), never panics or
// silent corruption.

func TestServerRejectsMalformedMessages(t *testing.T) {
	pro, cl, _, _ := newSumDeployment(t, ModeSNIP, 2, false)
	_ = pro
	srv := cl.Servers[1]

	cases := []struct {
		name    string
		msgType byte
		payload []byte
	}{
		{"unknown type", 99, nil},
		{"truncated challenge", MsgSetChallenge, []byte{1, 2}},
		{"truncated round1", MsgRound1, []byte{0}},
		{"round1 huge count", MsgRound1, func() []byte {
			w := &wbuf{}
			w.u32(1)
			w.u64(1)
			w.u32(1 << 30)
			return w.b
		}()},
		{"round1 count beyond payload", MsgRound1, func() []byte {
			// Three 4-byte blob headers cannot hold the 1000 bundles the
			// count claims: refused before anything is sized by it.
			w := &wbuf{}
			w.u32(1)
			w.u64(1)
			w.u32(1000)
			w.raw(make([]byte, 12))
			return w.b
		}()},
		{"round2 probe for an unknown batch", MsgRound2Batch, func() []byte {
			w := &wbuf{}
			w.u32(1)
			w.u64(999)
			w.u8(0)
			return w.b
		}()},
		// 3 and 9 are retired numbers (the per-submission Round2 exchange,
		// the one-shot client submit): no handler answers them.
		{"retired round2", MsgRound2, func() []byte {
			w := &wbuf{}
			w.u32(1)
			w.u64(999)
			return w.b
		}()},
		{"retired one-shot submit", 9, nil},
		{"finish unknown batch", MsgFinish, func() []byte {
			w := &wbuf{}
			w.u64(12345)
			w.blob([]byte{0xFF})
			return w.b
		}()},
		{"mpc round in snip mode", MsgMPCRound, func() []byte {
			w := &wbuf{}
			w.u32(1)
			w.u64(1)
			return w.b
		}()},
	}
	for _, c := range cases {
		if _, err := srv.Handle(c.msgType, c.payload); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

func TestRound1RequiresChallenge(t *testing.T) {
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 2, false)
	enc, _ := scheme.Encode(1)
	sub, err := client.BuildSubmission(enc)
	if err != nil {
		t.Fatal(err)
	}
	// Talk to a server directly with a challenge ID it has never seen.
	w := &wbuf{}
	w.u32(77)
	w.u64(1)
	w.u32(1)
	w.blob(sub.Bundles[1])
	if _, err := cl.Servers[1].Handle(MsgRound1, w.b); err == nil {
		t.Error("Round1 accepted unknown challenge ID")
	}
}

func TestMalformedBundleRejectedAlone(t *testing.T) {
	// A bundle its server cannot decode costs that submission only: the
	// honest submissions batched around it are accepted and aggregated.
	pro, _, _, _ := newSumDeployment(t, ModeSNIP, 3, false)
	f := pro.Cfg.Field
	short := &wbuf{}
	short.u8(bundleExplicit)
	wvec(short, f, make([]uint64, pro.FlatLen()-1))
	nonCanonical := &wbuf{}
	nonCanonical.u8(bundleExplicit)
	wvec(nonCanonical, f, make([]uint64, pro.FlatLen()-1))
	nonCanonical.u64(field.ModulusF64)
	cases := []struct {
		name   string
		server int
		bundle []byte
	}{
		{"short explicit vector", 0, short.b},
		{"non-canonical element", 0, nonCanonical.b},
		{"explicit vector on a seed server", 1, short.b},
		{"truncated seed", 1, append([]byte{bundleSeed}, make([]byte, prg.SeedSize-1)...)},
		{"unknown flag", 2, []byte{0x7F, 1, 2, 3}},
		{"empty", 2, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, false)
			subs := honestSubs(t, client, scheme, 3, 4, 5)
			subs[1].Bundles[c.server] = c.bundle
			expectVerdicts(t, cl, subs, []bool{true, false, true}, 8)
		})
	}
}

func TestGarbledSeedYieldsRejectionNotPanic(t *testing.T) {
	// A syntactically valid but wrong seed expands to garbage shares: the
	// submission must be *rejected* (sums no longer verify), not crash.
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, false)
	enc, _ := scheme.Encode(3)
	sub, err := client.BuildSubmission(enc)
	if err != nil {
		t.Fatal(err)
	}
	sub.Bundles[1][3] ^= 0xA5 // corrupt the seed bytes
	accepts, err := cl.Leader.ProcessBatch([]*Submission{sub})
	if err != nil {
		t.Fatal(err)
	}
	if accepts[0] {
		t.Error("garbled seed accepted")
	}
}

func TestBundleCountMismatch(t *testing.T) {
	// The leader rejects a submission with the wrong number of bundles by
	// itself, before Round1; a batch of nothing else runs no round at all.
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, false)
	subs := honestSubs(t, client, scheme, 3, 4, 5)
	subs[0].Bundles = subs[0].Bundles[:2]
	subs[2].Bundles = append(subs[2].Bundles, []byte{bundleSeed})
	expectVerdicts(t, cl, subs, []bool{false, true, false}, 4)

	var round1s atomic.Int32
	lead := hookPeers(t, cl, func(j int, msgType byte) error {
		if msgType == MsgRound1 {
			round1s.Add(1)
		}
		return nil
	})
	accepts, err := lead.ProcessBatch(subs[:1])
	if err != nil || len(accepts) != 1 || accepts[0] {
		t.Errorf("lone malformed submission: accepts=%v err=%v, want [false]", accepts, err)
	}
	if n := round1s.Load(); n != 0 {
		t.Errorf("lone malformed submission cost %d Round1 calls", n)
	}
}

func TestEmptyBatchIsNoop(t *testing.T) {
	_, cl, _, _ := newSumDeployment(t, ModeSNIP, 2, false)
	accepts, err := cl.Leader.ProcessBatch(nil)
	if err != nil || accepts != nil {
		t.Errorf("empty batch: accepts=%v err=%v", accepts, err)
	}
}

func TestMixedBatchFiltersOnlyBadSubmissions(t *testing.T) {
	// A batch interleaving honest and malicious submissions must keep every
	// honest one and drop every bad one — per-submission isolation.
	f := field.NewF64()
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, true)
	var subs []*Submission
	wantAccept := []bool{}
	wantSum := uint64(0)
	for i := 0; i < 12; i++ {
		if i%3 == 2 {
			evil := make([]uint64, scheme.K())
			evil[0] = f.FromUint64(uint64(1000 + i))
			sub, err := client.BuildSubmission(evil)
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, sub)
			wantAccept = append(wantAccept, false)
			continue
		}
		v := uint64(i)
		wantSum += v
		enc, _ := scheme.Encode(v)
		sub, err := client.BuildSubmission(enc)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
		wantAccept = append(wantAccept, true)
	}
	accepts, err := cl.Leader.ProcessBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range accepts {
		if accepts[i] != wantAccept[i] {
			t.Errorf("submission %d: accept=%v want %v", i, accepts[i], wantAccept[i])
		}
	}
	agg, n, err := cl.Leader.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := scheme.Decode(agg, int(n))
	if err != nil {
		t.Fatal(err)
	}
	if got.Uint64() != wantSum {
		t.Errorf("aggregate = %v, want %d", got, wantSum)
	}
}

func TestDifferentialPrivacyIntegration(t *testing.T) {
	// Section 7 extension: servers add discrete-Laplace noise shares before
	// publishing. The decoded aggregate equals truth + Σ noise; with s
	// servers each adding noise, the sum must stay near the truth.
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, false)
	var subs []*Submission
	truth := uint64(0)
	for i := 0; i < 30; i++ {
		v := uint64(i % 16)
		truth += v
		enc, _ := scheme.Encode(v)
		sub, err := client.BuildSubmission(enc)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	if _, err := cl.Leader.ProcessBatch(subs); err != nil {
		t.Fatal(err)
	}
	params := dp.Params{Epsilon: 1, Sensitivity: 255}
	for _, srv := range cl.Servers {
		noise, err := dp.NoiseVector(field.NewF64(), rand.Reader, scheme.KPrime(), params)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.AddNoise(noise); err != nil {
			t.Fatal(err)
		}
	}
	agg, _, err := cl.Leader.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	// Interpret the (possibly negative) noised total.
	f := field.NewF64()
	v := f.ToBig(agg[0])
	signed := v.Int64()
	if v.BitLen() > 62 { // wrapped negative
		signed = -int64(field.ModulusF64 - agg[0])
	}
	diff := signed - int64(truth)
	if diff < -20000 || diff > 20000 {
		t.Errorf("noised aggregate off by %d; noise scale implausible", diff)
	}
	if err := cl.Servers[0].AddNoise([]uint64{1, 2}); err == nil {
		t.Error("AddNoise accepted wrong-length vector")
	}
}

func TestSealedDeploymentRequiresKeys(t *testing.T) {
	f := field.NewF64()
	pro, err := NewProtocol(Config[field.F64, uint64]{
		Field: f, Scheme: afe.NewSum(f, 4), Servers: 2, Mode: ModeSNIP, Seal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(pro, nil, nil); err == nil {
		t.Error("NewClient accepted missing keys in sealed mode")
	}
	pub, _, err := sealbox.GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(pro, []*sealbox.PublicKey{pub}, nil); err == nil {
		t.Error("NewClient accepted too few keys")
	}
}

func TestLeaderPeerCountValidation(t *testing.T) {
	pro, cl, _, _ := newSumDeployment(t, ModeSNIP, 3, false)
	_ = pro
	if _, err := NewLeader(cl.Servers[0], nil); err == nil {
		t.Error("NewLeader accepted wrong peer count")
	}
}
