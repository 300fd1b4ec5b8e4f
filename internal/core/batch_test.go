package core

import (
	crand "crypto/rand"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"prio/internal/afe"
	"prio/internal/field"
	"prio/internal/mpc"
	"prio/internal/snip"
	"prio/internal/transport"
)

// diffScheme is one AFE entry of the differential matrix: a scheme plus an
// honest-encoding generator indexed by submission number.
type diffScheme struct {
	name   string
	scheme afe.Scheme[uint64]
	encode func(i int) ([]uint64, error)
}

// diffSchemes spans the AFE types and circuit shapes the engine supports:
// scalar bit-decomposition (Sum, Variance), wide parallel range checks
// (BitVector), one-hot (FreqCount), and multiplication-heavy cross terms
// (LinReg).
func diffSchemes(f field.F64) []diffScheme {
	sum := afe.NewSum(f, 4)
	bv := afe.NewBitVector(f, 8)
	fc := afe.NewFreqCount(f, 5)
	lr := afe.NewLinRegUniform(f, 2, 3)
	vr := afe.NewVariance(f, 3)
	return []diffScheme{
		{"sum4", sum, func(i int) ([]uint64, error) { return sum.Encode(uint64(i) % 16) }},
		{"bitvec8", bv, func(i int) ([]uint64, error) {
			bits := make([]bool, 8)
			for j := range bits {
				bits[j] = (i+j)%3 == 0
			}
			return bv.Encode(bits)
		}},
		{"freq5", fc, func(i int) ([]uint64, error) { return fc.Encode(i % 5) }},
		{"linreg2", lr, func(i int) ([]uint64, error) {
			return lr.Encode([]uint64{uint64(i) % 8, uint64(i*3) % 8}, uint64(i*5)%8)
		}},
		{"variance3", vr, func(i int) ([]uint64, error) { return vr.Encode(uint64(i) % 8) }},
	}
}

// newDiffCluster builds an unsealed local cluster.
func newDiffCluster(t *testing.T, scheme afe.Scheme[uint64], mode Mode) (*Cluster[field.F64, uint64], *Client[field.F64, uint64]) {
	t.Helper()
	f := field.NewF64()
	pro, err := NewProtocol(Config[field.F64, uint64]{
		Field:    f,
		Scheme:   scheme,
		Servers:  3,
		Mode:     mode,
		SnipReps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewLocalCluster(pro)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(pro, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cl, client
}

// oracleAccepts is the per-submission reference verifier the deployment is
// compared against. It decodes every server's share of a submission the way
// handleRound1 does, then decides that one submission with the reference
// snip.Evaluator (Round1, SumRound1, Round2, Decide — one exchange per
// submission, under a challenge of its own) and, in MPC mode, a cooperative
// evaluation of Valid over the same shares. It touches none of the batch
// path: no BatchVerifier, no RLC probe, no reveal, no wire format.
func oracleAccepts(t *testing.T, cl *Cluster[field.F64, uint64], subs []*Submission) []bool {
	t.Helper()
	p := cl.Leader.pro
	f := p.Cfg.Field
	s := p.Cfg.Servers
	sys := p.snipSys()
	ch, err := sys.NewChallenge(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ev := sys.NewEvaluator(ch)
	validRho, err := field.SampleVec(f, crand.Reader, len(p.Cfg.Scheme.Circuit().Asserts))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]bool, len(subs))
	for j, sub := range subs {
		xs := make([][]uint64, s)
		triples := make([][]uint64, s)
		proofs := make([]*snip.Proof[uint64], s)
		for i := 0; i < s; i++ {
			flat := make([]uint64, p.flatLen)
			if err := p.decodeBundle(sub.Bundles[i], cl.Servers[i].priv, i, flat); err != nil {
				t.Fatalf("submission %d, server %d: %v", j, i, err)
			}
			var proofFlat []uint64
			if xs[i], triples[i], proofFlat, err = p.splitFlat(flat); err != nil {
				t.Fatal(err)
			}
			if proofs[i], err = sys.UnflattenProof(proofFlat); err != nil {
				t.Fatal(err)
			}
		}
		proved := xs // SNIP mode proves Valid(x); MPC mode proves the triples
		if p.Cfg.Mode == ModeMPC {
			proved = triples
		}
		ok, err := ev.VerifyDistributed(proved, proofs)
		if err != nil {
			t.Fatal(err)
		}
		if ok && p.Cfg.Mode == ModeMPC {
			sess := make([]*mpc.Session[field.F64, uint64], s)
			opens := make([]*mpc.Open[uint64], s)
			done := false
			for i := range sess {
				if sess[i], err = mpc.NewSession(f, p.Cfg.Scheme.Circuit(), s, xs[i], triples[i], i == 0); err != nil {
					t.Fatal(err)
				}
				opens[i], done = sess[i].Start()
			}
			for !done {
				opened := mpc.SumOpen(f, opens)
				for i := range sess {
					if opens[i], done, err = sess[i].Step(opened); err != nil {
						t.Fatal(err)
					}
				}
			}
			tau := f.Zero()
			for i := range sess {
				share, err := sess[i].TauShare(validRho)
				if err != nil {
					t.Fatal(err)
				}
				tau = f.Add(tau, share)
			}
			ok = f.IsZero(tau)
		}
		out[j] = ok
	}
	return out
}

// TestBatchVerifyDifferential is the core-level equivalence suite for the
// verification path: the same submission batch — with 0, 1, and N malicious
// submissions planted at deterministic random positions — is processed by
// the deployment (the combined probe, then one reveal when it fails) and
// decided one submission at a time by oracleAccepts over the very same
// shares. Both must accept exactly the honest submissions, which also pins
// down that the reveal rejects only the planted positions.
func TestBatchVerifyDifferential(t *testing.T) {
	f := field.NewF64()
	const b = 10
	rng := rand.New(rand.NewSource(0x5e1fc0de))
	for _, ds := range diffSchemes(f) {
		for _, mode := range []Mode{ModeSNIP, ModeMPC} {
			// MPC mode triples the per-case cost; the triple-wellformedness
			// SNIP shape is scheme-independent, so two shapes (M small and M
			// large) cover it.
			if mode == ModeMPC && ds.name != "sum4" && ds.name != "linreg2" {
				continue
			}
			for _, nBad := range []int{0, 1, b / 2} {
				name := fmt.Sprintf("%s/%s/bad%d", ds.name, mode, nBad)
				bad := make([]bool, b)
				for _, p := range rng.Perm(b)[:nBad] {
					bad[p] = true
				}
				t.Run(name, func(t *testing.T) {
					cl, client := newDiffCluster(t, ds.scheme, mode)
					subs := make([]*Submission, b)
					for i := 0; i < b; i++ {
						enc, err := ds.encode(i)
						if err != nil {
							t.Fatal(err)
						}
						if bad[i] {
							// Out-of-range first element: every scheme here
							// constrains it to {0, 1} (a bit or a one-hot
							// entry), so Valid must reject this.
							enc[0] = f.Add(enc[0], f.FromUint64(1<<40))
						}
						if subs[i], err = client.BuildSubmission(enc); err != nil {
							t.Fatal(err)
						}
					}
					got, err := cl.Leader.ProcessBatch(subs)
					if err != nil {
						t.Fatalf("ProcessBatch: %v", err)
					}
					want := oracleAccepts(t, cl, subs)
					for i := 0; i < b; i++ {
						if got[i] != !bad[i] {
							t.Errorf("submission %d: deployment accept=%v, honest=%v", i, got[i], !bad[i])
						}
						if got[i] != want[i] {
							t.Errorf("submission %d: deployment accept=%v, per-submission oracle accept=%v", i, got[i], want[i])
						}
					}
					_, n, err := cl.Leader.Aggregate()
					if err != nil {
						t.Fatal(err)
					}
					if n != uint64(b-nBad) {
						t.Errorf("accepted count = %d, want %d", n, b-nBad)
					}
				})
			}
		}
	}
}

// countingPeer wraps a Peer and counts its calls by message type.
type countingPeer struct {
	transport.Peer
	calls *[256]atomic.Int32
}

func (p *countingPeer) Call(msgType byte, payload []byte) ([]byte, error) {
	p.calls[msgType].Add(1)
	return p.Peer.Call(msgType, payload)
}

// countedLeader builds a leader on server 0 whose calls are counted:
// calls[j][m] is the number of type-m calls it made to server j.
func countedLeader(t *testing.T, cl *Cluster[field.F64, uint64]) (*Leader[field.F64, uint64], []*[256]atomic.Int32) {
	t.Helper()
	calls := make([]*[256]atomic.Int32, len(cl.Servers))
	ld := leaderOn(t, cl, 0, func(j int, p transport.Peer) transport.Peer {
		calls[j] = new([256]atomic.Int32)
		return &countingPeer{Peer: p, calls: calls[j]}
	})
	return ld, calls
}

// verifyCounted runs one batch of sum4 submissions, the ones bad marks made
// invalid, through a leader whose calls are counted. The verdicts must be
// the honesty mask and oracleAccepts', and every server must have answered
// exactly wantProbes MsgRound2Batch probes.
func verifyCounted(t *testing.T, bad []bool, wantProbes int32) {
	t.Helper()
	f := field.NewF64()
	scheme := afe.NewSum(f, 4)
	cl, client := newDiffCluster(t, scheme, ModeSNIP)
	subs := make([]*Submission, len(bad))
	honest := uint64(0)
	for i := range subs {
		enc, err := scheme.Encode(uint64(i) % 16)
		if err != nil {
			t.Fatal(err)
		}
		if bad[i] {
			enc[0] = f.Add(enc[0], f.FromUint64(3))
		} else {
			honest++
		}
		if subs[i], err = client.BuildSubmission(enc); err != nil {
			t.Fatal(err)
		}
	}
	ld, calls := countedLeader(t, cl)
	got, err := ld.ProcessBatch(subs)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleAccepts(t, cl, subs)
	for i := range subs {
		if got[i] != !bad[i] || got[i] != want[i] {
			t.Errorf("submission %d: accept=%v, honest=%v, oracle=%v", i, got[i], !bad[i], want[i])
		}
	}
	for j, c := range calls {
		if n := c[MsgRound2Batch].Load(); n != wantProbes {
			t.Errorf("server %d answered %d Round2 probes, want %d", j, n, wantProbes)
		}
	}
	if _, n, err := ld.Aggregate(); err != nil || n != honest {
		t.Errorf("accepted count = %d (%v), want %d", n, err, honest)
	}
}

// TestBatchVerifyAllMalicious is the fallback's worst case: every
// submission in a batch of 16 is bad, so the combined check fails and one
// reveal must reject each of them, in two probes in all.
func TestBatchVerifyAllMalicious(t *testing.T) {
	bad := make([]bool, 16)
	for i := range bad {
		bad[i] = true
	}
	verifyCounted(t, bad, 2)
}

// TestBatchVerifyProbeCount pins the Round2 probes a batch costs: one when
// every submission is honest or the batch is a single submission, two
// otherwise.
func TestBatchVerifyProbeCount(t *testing.T) {
	oneBad := make([]bool, 16)
	oneBad[11] = true
	for _, c := range []struct {
		name   string
		bad    []bool
		probes int32
	}{
		{"honest16", make([]bool, 16), 1},
		{"oneBad16", oneBad, 2},
		{"badSingleton", []bool{true}, 1},
	} {
		t.Run(c.name, func(t *testing.T) { verifyCounted(t, c.bad, c.probes) })
	}
}

// TestBatchVerifyChallengeRotation crosses the batched path with challenge
// rotation: batches straddling a rotation boundary must verify under the
// correct (cached) evaluator for their challenge window.
func TestBatchVerifyChallengeRotation(t *testing.T) {
	f := field.NewF64()
	scheme := afe.NewSum(f, 4)
	pro, err := NewProtocol(Config[field.F64, uint64]{
		Field:          f,
		Scheme:         scheme,
		Servers:        3,
		Mode:           ModeSNIP,
		SnipReps:       1,
		ChallengeEvery: 4, // rotate mid-run
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewLocalCluster(pro)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(pro, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(0)
	total := 0
	for batch := 0; batch < 5; batch++ {
		subs := make([]*Submission, 3)
		for i := range subs {
			v := uint64((batch*3 + i) % 16)
			want += v
			total++
			enc, err := scheme.Encode(v)
			if err != nil {
				t.Fatal(err)
			}
			if subs[i], err = client.BuildSubmission(enc); err != nil {
				t.Fatal(err)
			}
		}
		accepts, err := cl.Leader.ProcessBatch(subs)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		for i, ok := range accepts {
			if !ok {
				t.Fatalf("batch %d submission %d rejected", batch, i)
			}
		}
	}
	agg, n, err := cl.Leader.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(total) {
		t.Fatalf("count = %d, want %d", n, total)
	}
	got, err := scheme.Decode(agg, int(n))
	if err != nil {
		t.Fatal(err)
	}
	if got.Uint64() != want {
		t.Errorf("aggregate = %v, want %d", got, want)
	}
}
