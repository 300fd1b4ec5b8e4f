package core

import (
	"bytes"
	"encoding/hex"
	"testing"

	"prio/internal/afe"
	"prio/internal/field"
	"prio/internal/prg"
	"prio/internal/sealbox"
	"prio/internal/share"
)

// TestSealedBundlesShareOneEncapsulation: in a sealed submission every seed
// server's bundle is the 32-byte encapsulation the leader's box starts with.
func TestSealedBundlesShareOneEncapsulation(t *testing.T) {
	for _, servers := range []int{2, 3, 5} {
		_, _, client, scheme := newSumDeployment(t, ModeSNIP, servers, true)
		for _, sub := range honestSubs(t, client, scheme, 0, 1, 200) {
			encap := sub.Bundles[0][:sealbox.EncapSize]
			for i := 1; i < servers; i++ {
				if !bytes.Equal(sub.Bundles[i], encap) {
					t.Fatalf("s=%d: bundle %d is %x, want the encapsulation %x", servers, i, sub.Bundles[i], encap)
				}
			}
		}
	}
}

// TestEncapsulationsNeverRepeat: each build draws a fresh ephemeral key. A
// repeat would give two submissions the same seeds, and the leader the
// difference of their values.
func TestEncapsulationsNeverRepeat(t *testing.T) {
	_, _, client, scheme := newSumDeployment(t, ModeSNIP, 3, true)
	enc, err := scheme.Encode(7)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool, 1000)
	for n := 0; n < 1000; n++ {
		sub, err := client.BuildSubmission(enc)
		if err != nil {
			t.Fatal(err)
		}
		encap := string(sub.Bundles[1])
		if seen[encap] {
			t.Fatalf("build %d repeats an encapsulation", n)
		}
		seen[encap] = true
	}
}

// TestSwappedSeedBundlesRejected: servers 1 and 2 receive byte-identical
// bundles, so "swapping" them means each server gets the seed derived for
// the other's position — a client listing their keys the other way round.
// Only the index in the seed label tells the two apart (seeds are additive
// shares, so the swapped pair still sums to the same vector): the submission
// is rejected, and its batch neighbours are not.
func TestSwappedSeedBundlesRejected(t *testing.T) {
	pro, cl, client, scheme := newSumDeployment(t, ModeSNIP, 3, true)
	keys := cl.PublicKeys()
	keys[1], keys[2] = keys[2], keys[1]
	swapped, err := NewClient(pro, keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	subs := honestSubs(t, client, scheme, 4, 5, 6)
	subs[1] = honestSubs(t, swapped, scheme, 5)[0]
	expectVerdicts(t, cl, subs, []bool{true, false, true}, 10)
}

// goldenEncap is internal/sealbox's TestSeedGoldenVector encapsulation: a
// fixed ephemeral scalar's public key, a valid bundle for the fuzz
// deployment's fixed-key servers.
func goldenEncap() []byte {
	b, _ := hex.DecodeString("13be4feaeaf204c7fd3358fc9c00721881d174278128227ec674f37f7fe97b6d")
	return b
}

// TestSeedDerivationGoldenVector: server 1 of the fuzz deployment (the fixed
// 0x42… key) expands the golden encapsulation into the share of the golden
// seed of internal/sealbox's TestSeedGoldenVector. This pins seedLabel, the
// other half of that contract.
func TestSeedDerivationGoldenVector(t *testing.T) {
	srv := fuzzServer(t, 1, true)
	seed, _ := hex.DecodeString("83d0f73b6406a4f4a1d0426f34fca3f7")
	p := srv.pro
	got := make([]uint64, p.FlatLen())
	if err := p.decodeBundle(goldenEncap(), srv.priv, srv.idx, got); err != nil {
		t.Fatal(err)
	}
	if want := share.Expand(p.Cfg.Field, prg.Seed(seed), p.FlatLen()); !field.EqualVec(p.Cfg.Field, got, want) {
		t.Error("the golden encapsulation does not expand to the golden seed's share")
	}
}

// TestNewClientRejectsBadKeys: a sealed client refuses a nil key, which
// would panic at the first build, and a key listed for two servers — in any
// encoding — which would let the relaying leader open the other's share.
func TestNewClientRejectsBadKeys(t *testing.T) {
	f := field.NewF64()
	pro, err := NewProtocol(Config[field.F64, uint64]{
		Field: f, Scheme: afe.NewSum(f, 4), Servers: 3, Mode: ModeSNIP, Seal: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]*sealbox.PublicKey, 3)
	for i := range keys {
		if keys[i], _, err = sealbox.GenerateKey(); err != nil {
			t.Fatal(err)
		}
	}
	high := keys[0].Bytes()
	high[31] ^= 0x80
	alias, err := sealbox.ParsePublicKey(high)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		keys []*sealbox.PublicKey
		ok   bool
	}{
		{"distinct keys", keys, true},
		{"nil key", []*sealbox.PublicKey{keys[0], nil, keys[2]}, false},
		{"leader's key listed for server 2", []*sealbox.PublicKey{keys[0], keys[1], keys[0]}, false},
		{"seed servers share a key", []*sealbox.PublicKey{keys[0], keys[1], keys[1]}, false},
		{"leader's key with bit 255 set", []*sealbox.PublicKey{keys[0], alias, keys[2]}, false},
	}
	for _, c := range cases {
		_, err := NewClient(pro, c.keys, nil)
		if (err == nil) != c.ok {
			t.Errorf("%s: NewClient err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
