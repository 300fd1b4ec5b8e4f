package core

import (
	"testing"

	"prio/internal/afe"
	"prio/internal/field"
)

// newSumDeployment builds a local cluster summing 8-bit integers.
func newSumDeployment(t *testing.T, mode Mode, servers int, seal bool) (*Protocol[field.F64, uint64], *Cluster[field.F64, uint64], *Client[field.F64, uint64], *afe.Sum[field.F64, uint64]) {
	t.Helper()
	f := field.NewF64()
	scheme := afe.NewSum(f, 8)
	pro, err := NewProtocol(Config[field.F64, uint64]{
		Field:    f,
		Scheme:   scheme,
		Servers:  servers,
		Mode:     mode,
		SnipReps: 2,
		Seal:     seal,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewLocalCluster(pro)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(pro, cl.PublicKeys(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return pro, cl, client, scheme
}

// honestSubs builds one honest submission per value.
func honestSubs(t *testing.T, client *Client[field.F64, uint64], scheme *afe.Sum[field.F64, uint64], values ...uint64) []*Submission {
	t.Helper()
	subs := make([]*Submission, len(values))
	for i, v := range values {
		enc, err := scheme.Encode(v)
		if err != nil {
			t.Fatal(err)
		}
		if subs[i], err = client.BuildSubmission(enc); err != nil {
			t.Fatal(err)
		}
	}
	return subs
}

// expectVerdicts runs subs as one batch and checks the per-submission
// decisions, that every server released the batch's state, and that the
// aggregate is wantSum over exactly the accepted submissions.
func expectVerdicts(t *testing.T, cl *Cluster[field.F64, uint64], subs []*Submission, want []bool, wantSum uint64) {
	t.Helper()
	accepts, err := cl.Leader.ProcessBatch(subs)
	if err != nil {
		t.Fatalf("batch failed as a whole: %v", err)
	}
	accepted := uint64(0)
	for i := range want {
		if accepts[i] != want[i] {
			t.Errorf("submission %d: accept=%v want %v", i, accepts[i], want[i])
		}
		if want[i] {
			accepted++
		}
	}
	for i, srv := range cl.Servers {
		srv.mu.Lock()
		n := len(srv.batches)
		srv.mu.Unlock()
		if n != 0 {
			t.Errorf("server %d holds %d batch states after the batch", i, n)
		}
	}
	agg, n, err := cl.Leader.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if n != accepted || agg[0] != wantSum {
		t.Errorf("aggregate = %d over %d submissions, want %d over %d", agg[0], n, wantSum, accepted)
	}
}

func TestEndToEndAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeNoRobust, ModeSNIP, ModeMPC} {
		for _, servers := range []int{1, 2, 5} {
			t.Run(mode.String()+"/"+string(rune('0'+servers)), func(t *testing.T) {
				_, cl, client, scheme := newSumDeployment(t, mode, servers, true)
				values := []uint64{3, 200, 17, 0, 255, 42}
				want := uint64(0)
				var subs []*Submission
				for _, v := range values {
					want += v
					enc, err := scheme.Encode(v)
					if err != nil {
						t.Fatal(err)
					}
					sub, err := client.BuildSubmission(enc)
					if err != nil {
						t.Fatal(err)
					}
					subs = append(subs, sub)
				}
				accepts, err := cl.Leader.ProcessBatch(subs)
				if err != nil {
					t.Fatal(err)
				}
				for i, ok := range accepts {
					if !ok {
						t.Errorf("honest submission %d rejected", i)
					}
				}
				agg, n, err := cl.Leader.Aggregate()
				if err != nil {
					t.Fatal(err)
				}
				if n != uint64(len(values)) {
					t.Fatalf("accepted count = %d, want %d", n, len(values))
				}
				got, err := scheme.Decode(agg, int(n))
				if err != nil {
					t.Fatal(err)
				}
				if got.Uint64() != want {
					t.Errorf("aggregate = %v, want %d", got, want)
				}
			})
		}
	}
}

func TestMaliciousClientRejected(t *testing.T) {
	for _, mode := range []Mode{ModeSNIP, ModeMPC} {
		t.Run(mode.String(), func(t *testing.T) {
			f := field.NewF64()
			_, cl, client, scheme := newSumDeployment(t, mode, 3, true)
			// Honest submissions worth 10 total.
			var subs []*Submission
			for _, v := range []uint64{4, 6} {
				enc, _ := scheme.Encode(v)
				sub, err := client.BuildSubmission(enc)
				if err != nil {
					t.Fatal(err)
				}
				subs = append(subs, sub)
			}
			// Malicious: claim a huge value with bogus bits (the Section 1
			// attack). BuildSubmission shares whatever encoding it is given.
			evil := make([]uint64, scheme.K())
			evil[0] = f.FromUint64(1 << 40)
			evilSub, err := client.BuildSubmission(evil)
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, evilSub)

			accepts, err := cl.Leader.ProcessBatch(subs)
			if err != nil {
				t.Fatal(err)
			}
			if !accepts[0] || !accepts[1] {
				t.Error("honest submissions rejected")
			}
			if accepts[2] {
				t.Error("malicious submission accepted")
			}
			agg, n, err := cl.Leader.Aggregate()
			if err != nil {
				t.Fatal(err)
			}
			if n != 2 {
				t.Fatalf("accepted count = %d, want 2", n)
			}
			got, err := scheme.Decode(agg, int(n))
			if err != nil {
				t.Fatal(err)
			}
			if got.Uint64() != 10 {
				t.Errorf("aggregate = %v, want 10 (malicious influence!)", got)
			}
		})
	}
}

func TestNoRobustModeIsVulnerable(t *testing.T) {
	// Negative control: without SNIPs the Section 1 attack succeeds. This
	// pins down that the robustness in the previous test comes from the
	// proofs, not from some accidental filtering.
	_, cl, client, scheme := newSumDeployment(t, ModeNoRobust, 3, true)
	enc, _ := scheme.Encode(1)
	sub, err := client.BuildSubmission(enc)
	if err != nil {
		t.Fatal(err)
	}
	evil := make([]uint64, scheme.K())
	evil[0] = 1 << 40
	evilSub, err := client.BuildSubmission(evil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Leader.ProcessBatch([]*Submission{sub, evilSub}); err != nil {
		t.Fatal(err)
	}
	agg, n, err := cl.Leader.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := scheme.Decode(agg, int(n))
	if err == nil && got.Uint64() == 1 {
		t.Error("no-robust mode unexpectedly filtered the attack")
	}
}

func TestMultipleBatchesAndChallengeRotation(t *testing.T) {
	f := field.NewF64()
	scheme := afe.NewSum(f, 4)
	pro, err := NewProtocol(Config[field.F64, uint64]{
		Field:          f,
		Scheme:         scheme,
		Servers:        3,
		Mode:           ModeSNIP,
		SnipReps:       1,
		Seal:           false,
		ChallengeEvery: 5, // force rotations
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
	for batch := 0; batch < 6; batch++ {
		var subs []*Submission
		for i := 0; i < 3; i++ {
			v := uint64((batch + i) % 16)
			want += v
			total++
			enc, _ := scheme.Encode(v)
			sub, err := client.BuildSubmission(enc)
			if err != nil {
				t.Fatal(err)
			}
			subs = append(subs, sub)
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

func TestResetClearsState(t *testing.T) {
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 2, false)
	enc, _ := scheme.Encode(9)
	sub, _ := client.BuildSubmission(enc)
	if _, err := cl.Leader.ProcessBatch([]*Submission{sub}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Leader.Reset(); err != nil {
		t.Fatal(err)
	}
	agg, n, err := cl.Leader.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("count after reset = %d", n)
	}
	got, err := scheme.Decode(agg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sign() != 0 {
		t.Errorf("aggregate after reset = %v", got)
	}
}

func TestSubmissionMarshalRoundTrip(t *testing.T) {
	_, _, client, scheme := newSumDeployment(t, ModeSNIP, 4, true)
	enc, _ := scheme.Encode(100)
	sub, err := client.BuildSubmission(enc)
	if err != nil {
		t.Fatal(err)
	}
	b := sub.Marshal()
	back, err := UnmarshalSubmission(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Bundles) != len(sub.Bundles) {
		t.Fatal("bundle count mismatch")
	}
	for i := range back.Bundles {
		if string(back.Bundles[i]) != string(sub.Bundles[i]) {
			t.Errorf("bundle %d mismatch", i)
		}
	}
	if _, err := UnmarshalSubmission(b[:len(b)-1]); err == nil {
		t.Error("truncated submission accepted")
	}
	if _, err := UnmarshalSubmission(nil); err == nil {
		t.Error("empty submission accepted")
	}
}

func TestSealedBundleTamperRejected(t *testing.T) {
	// A tampered encapsulation derives the wrong seed on its server (a
	// tampered box would fail to open), which costs that one submission and
	// nothing else in the batch.
	_, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, true)
	subs := honestSubs(t, client, scheme, 5, 5, 5)
	subs[1].Bundles[1][10] ^= 0xFF
	expectVerdicts(t, cl, subs, []bool{true, false, true}, 10)
}

func TestBitVectorEndToEnd(t *testing.T) {
	// The Figure 4 workload: 0/1 vectors summed per position.
	f := field.NewF64()
	scheme := afe.NewBitVector(f, 64)
	pro, err := NewProtocol(Config[field.F64, uint64]{
		Field:   f,
		Scheme:  scheme,
		Servers: 5,
		Mode:    ModeSNIP,
		Seal:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewLocalCluster(pro)
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(pro, cl.PublicKeys(), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint64, 64)
	var subs []*Submission
	for c := 0; c < 10; c++ {
		bits := make([]bool, 64)
		for i := range bits {
			bits[i] = (c+i)%3 == 0
			if bits[i] {
				want[i]++
			}
		}
		enc, err := scheme.Encode(bits)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := client.BuildSubmission(enc)
		if err != nil {
			t.Fatal(err)
		}
		subs = append(subs, sub)
	}
	if _, err := cl.Leader.ProcessBatch(subs); err != nil {
		t.Fatal(err)
	}
	agg, n, err := cl.Leader.Aggregate()
	if err != nil {
		t.Fatal(err)
	}
	got, err := scheme.Decode(agg, int(n))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("position %d count = %d, want %d", i, got[i], want[i])
		}
	}
	// Non-leader servers exchanged only constant-size verification traffic:
	// far less than the submission itself (the Figure 6 property).
	st := cl.Leader.PeerStats(1)
	perSub := float64(st.BytesSent+st.BytesRecv) / 10
	if perSub > 4096 {
		t.Errorf("per-submission server traffic = %.0f bytes, expected small constant", perSub)
	}
}

func TestServerIndexValidation(t *testing.T) {
	f := field.NewF64()
	pro, err := NewProtocol(Config[field.F64, uint64]{
		Field:   f,
		Scheme:  afe.NewSum(f, 4),
		Servers: 2,
		Mode:    ModeSNIP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewServer(pro, 2, nil); err == nil {
		t.Error("NewServer accepted out-of-range index")
	}
	if _, err := NewServer(pro, -1, nil); err == nil {
		t.Error("NewServer accepted negative index")
	}
}

func TestConfigValidation(t *testing.T) {
	f := field.NewF64()
	if _, err := NewProtocol(Config[field.F64, uint64]{Field: f, Scheme: afe.NewSum(f, 4), Servers: 0}); err == nil {
		t.Error("accepted zero servers")
	}
	if _, err := NewProtocol(Config[field.F64, uint64]{Field: f, Servers: 2}); err == nil {
		t.Error("accepted missing scheme")
	}
	if _, err := NewProtocol(Config[field.F64, uint64]{Field: f, Scheme: afe.NewSum(f, 4), Servers: 2, Mode: Mode(99)}); err == nil {
		t.Error("accepted unknown mode")
	}
}

func TestClientEncodingLengthValidation(t *testing.T) {
	_, _, client, _ := newSumDeployment(t, ModeSNIP, 2, false)
	if _, err := client.BuildSubmission([]uint64{1, 2}); err == nil {
		t.Error("BuildSubmission accepted wrong-length encoding")
	}
}
