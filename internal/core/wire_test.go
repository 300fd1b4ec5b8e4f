package core

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"

	"prio/internal/afe"
	"prio/internal/field"
	"prio/internal/prg"
	"prio/internal/transport"
)

// Wire-format tests: the hand-rolled binary codec must round-trip exactly
// and reject every malformed prefix.

func TestWbufRbufRoundTrip(t *testing.T) {
	f := field.NewF64()
	w := &wbuf{}
	w.u8(7)
	w.u32(0xDEADBEEF)
	w.u64(1 << 60)
	w.blob([]byte("hello"))
	w.blob(nil)
	wvec(w, f, []uint64{1, 2, field.ModulusF64 - 1})

	r := &rbuf{b: w.b}
	if got := r.u8(); got != 7 {
		t.Errorf("u8 = %d", got)
	}
	if got := r.u32(); got != 0xDEADBEEF {
		t.Errorf("u32 = %x", got)
	}
	if got := r.u64(); got != 1<<60 {
		t.Errorf("u64 = %x", got)
	}
	if got := r.blob(); !bytes.Equal(got, []byte("hello")) {
		t.Errorf("blob = %q", got)
	}
	if got := r.blob(); len(got) != 0 {
		t.Errorf("empty blob = %q", got)
	}
	vec := rvec(r, f, 3)
	if !field.EqualVec(f, vec, []uint64{1, 2, field.ModulusF64 - 1}) {
		t.Errorf("vec = %v", vec)
	}
	if !r.done() {
		t.Error("reader not fully consumed")
	}
}

func TestRbufTruncationSticks(t *testing.T) {
	r := &rbuf{b: []byte{1, 2}}
	_ = r.u32() // fails: only 2 bytes
	if r.err == nil {
		t.Fatal("u32 on short buffer did not fail")
	}
	// Every subsequent read stays failed and returns zero values.
	if r.u8() != 0 || r.u64() != 0 || r.blob() != nil {
		t.Error("reads after failure returned data")
	}
	if r.done() {
		t.Error("failed reader reports done")
	}
}

func TestRbufBlobOverrun(t *testing.T) {
	w := &wbuf{}
	w.u32(100) // claims 100 bytes
	w.raw([]byte{1, 2, 3})
	r := &rbuf{b: w.b}
	if got := r.blob(); got != nil || r.err == nil {
		t.Error("blob overrun not detected")
	}
}

func TestRvecRejectsNonCanonical(t *testing.T) {
	f := field.NewF64()
	w := &wbuf{}
	for i := 0; i < 8; i++ {
		w.u8(0xFF) // 2^64-1 ≥ p: invalid element
	}
	r := &rbuf{b: w.b}
	if got := rvec(r, f, 1); got != nil || r.err == nil {
		t.Error("non-canonical element accepted by rvec")
	}
}

// TestChallengeSeedDerivation: the randomness a challenge seed stands for
// is a function of the seed alone — what lets every server expand it on its
// own — and its uses are domain-separated: λ seeds differ per batch ID and
// from the MPC coefficients' seed, and none is the challenge seed itself.
func TestChallengeSeedDerivation(t *testing.T) {
	f := field.NewF64()
	pro, err := NewProtocol(Config[field.F64, uint64]{
		Field: f, Scheme: afe.NewSum(f, 6), Servers: 2, Mode: ModeMPC, SnipReps: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, b := prg.Seed{1}, prg.Seed{2}
	derived := []prg.Seed{a, deriveSeed(a, "rlc", 1), deriveSeed(a, "rlc", 2), deriveSeed(a, "mpc", 0), deriveSeed(b, "rlc", 1)}
	for i := range derived {
		for j := 0; j < i; j++ {
			if derived[i] == derived[j] {
				t.Errorf("derived seeds %d and %d coincide", j, i)
			}
		}
	}
	if deriveSeed(a, "rlc", 1) != derived[1] {
		t.Error("λ seed is not a function of (seed, batch ID)")
	}
	rho := pro.validRho(a)
	if len(rho) != len(pro.Cfg.Scheme.Circuit().Asserts) || !field.EqualVec(f, rho, pro.validRho(a)) {
		t.Error("MPC coefficients are not a function of the seed")
	}
	if field.EqualVec(f, rho, pro.validRho(b)) {
		t.Error("distinct seeds gave the same MPC coefficients")
	}
}

// recordPeer keeps a copy of every request of the given type it forwards.
type recordPeer struct {
	transport.Peer
	msgType byte
	mu      sync.Mutex
	reqs    [][]byte
}

func (p *recordPeer) Call(msgType byte, payload []byte) ([]byte, error) {
	if msgType == p.msgType {
		p.mu.Lock()
		p.reqs = append(p.reqs, bytes.Clone(payload))
		p.mu.Unlock()
	}
	return p.Peer.Call(msgType, payload)
}

// TestRoundRequestLayout pins the verification-round requests of a
// 3-submission batch: Round1 is [challenge number][batch ID][count][16-byte
// challenge seed][count × (length, bundle)][window stamp], and the combined
// probe is [challenge number][batch ID][kind][opened masks] with no λ seed,
// every server deriving λ from the challenge seed and the batch ID.
func TestRoundRequestLayout(t *testing.T) {
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, true)
	r1 := &recordPeer{msgType: MsgRound1}
	probes := &recordPeer{msgType: MsgRound2Batch}
	lead := leaderOn(t, cl, 0, func(j int, p transport.Peer) transport.Peer {
		switch j {
		case 1:
			r1.Peer = p
			return r1
		case 2:
			probes.Peer = p
			return probes
		}
		return p
	})
	subs := honestSubs(t, client, scheme, 1, 2, 3)
	if _, err := lead.ProcessBatch(subs); err != nil {
		t.Fatal(err)
	}
	if len(r1.reqs) != 1 || len(probes.reqs) != 1 {
		t.Fatalf("recorded %d Round1 and %d Round2Batch requests, want 1 and 1", len(r1.reqs), len(probes.reqs))
	}
	round1, probe := r1.reqs[0], probes.reqs[0]
	want := 4 + 8 + 4 + prg.SeedSize + 8
	for _, sub := range subs {
		want += 4 + len(sub.Bundles[1])
	}
	if len(round1) != want {
		t.Errorf("Round1 is %d bytes, want %d", len(round1), want)
	}
	reps := lead.pro.ValidSys.Reps
	if want := 4 + 8 + 1 + len(subs)*2*reps*8; len(probe) != want {
		t.Errorf("combined probe is %d bytes, want %d", len(probe), want)
	}
	for name, req := range map[string][]byte{"Round1": round1, "combined probe": probe} {
		if id := binary.LittleEndian.Uint64(req[4:]); id != lead.batchSeq {
			t.Errorf("%s: batch ID %#x at offset 4, want %#x", name, id, lead.batchSeq)
		}
	}
	if n := binary.LittleEndian.Uint32(round1[12:]); n != 3 {
		t.Errorf("Round1 count %d at offset 12, want 3", n)
	}
	if !bytes.Equal(round1[16:16+prg.SeedSize], lead.seed[:]) {
		t.Error("Round1 does not carry the session's challenge seed after the count")
	}
	if probe[12] != probeCombined {
		t.Errorf("probe kind %d, want %d", probe[12], probeCombined)
	}
}

// TestNoRobustRound1CarriesNoSeed: no-robust mode verifies nothing, so its
// Round1 is the head, the count, the bundles and the window stamp, with no
// challenge seed, and its leader never rotates one.
func TestNoRobustRound1CarriesNoSeed(t *testing.T) {
	_, cl, client, scheme := newSumDeployment(t, ModeNoRobust, 3, true)
	r1 := &recordPeer{msgType: MsgRound1}
	lead := leaderOn(t, cl, 0, func(j int, p transport.Peer) transport.Peer {
		if j != 1 {
			return p
		}
		r1.Peer = p
		return r1
	})
	challID := lead.challID
	var want []int
	for _, n := range []int{3, lead.pro.Cfg.ChallengeEvery} {
		subs := honestSubs(t, client, scheme, make([]uint64, n)...)
		if _, err := lead.ProcessBatch(subs); err != nil {
			t.Fatal(err)
		}
		w := 4 + 8 + 4 + 8
		for _, sub := range subs {
			w += 4 + len(sub.Bundles[1])
		}
		want = append(want, w)
	}
	for i, req := range r1.reqs {
		if len(req) != want[i] {
			t.Errorf("no-robust Round1 %d is %d bytes, want %d", i, len(req), want[i])
		}
	}
	if lead.challID != challID {
		t.Errorf("no-robust leader rotated its challenge: number %#x, was %#x", lead.challID, challID)
	}
}

func TestFlatLenByMode(t *testing.T) {
	f := field.NewF64()
	scheme := afe.NewSum(f, 6) // K=7, M=6
	lens := map[Mode]int{}
	for _, mode := range []Mode{ModeNoRobust, ModeSNIP, ModeMPC} {
		pro, err := NewProtocol(Config[field.F64, uint64]{
			Field: f, Scheme: scheme, Servers: 2, Mode: mode, SnipReps: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		lens[mode] = pro.FlatLen()
	}
	if lens[ModeNoRobust] != scheme.K() {
		t.Errorf("no-robust flat len = %d, want %d", lens[ModeNoRobust], scheme.K())
	}
	if lens[ModeSNIP] <= lens[ModeNoRobust] {
		t.Error("SNIP flat len should exceed bare encoding")
	}
	if lens[ModeMPC] <= lens[ModeNoRobust] {
		t.Error("MPC flat len should exceed bare encoding")
	}
}
