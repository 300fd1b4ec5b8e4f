package sealbox

import (
	"bytes"
	"crypto/ecdh"
	"encoding/hex"
	"errors"
	"fmt"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{0, 1, 16, 1000, 100000} {
		pt := bytes.Repeat([]byte{0xAB}, size)
		box, err := Seal(pub, pt)
		if err != nil {
			t.Fatal(err)
		}
		if len(box) != size+Overhead {
			t.Errorf("box size = %d, want %d", len(box), size+Overhead)
		}
		got, err := Open(priv, box)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if !bytes.Equal(got, pt) {
			t.Error("plaintext mismatch")
		}
	}
}

func TestTamperDetection(t *testing.T) {
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	box, err := Seal(pub, []byte("secret submission"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(box); i += 7 {
		mutated := append([]byte(nil), box...)
		mutated[i] ^= 0x01
		if _, err := Open(priv, mutated); err == nil {
			t.Errorf("tampering at byte %d went undetected", i)
		}
	}
}

func TestWrongRecipient(t *testing.T) {
	pubA, _, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	_, privB, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	box, err := Seal(pubA, []byte("for A only"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(privB, box); err == nil {
		t.Error("wrong recipient opened the box")
	}
}

func TestNondeterministic(t *testing.T) {
	pub, _, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := Seal(pub, []byte("x"))
	b, _ := Seal(pub, []byte("x"))
	if bytes.Equal(a, b) {
		t.Error("two seals of the same message are identical")
	}
}

func TestShortBoxRejected(t *testing.T) {
	_, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(priv, make([]byte, Overhead-1)); err == nil {
		t.Error("short box accepted")
	}
}

func TestPrivateKeyEncoding(t *testing.T) {
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	b := priv.Bytes()
	if len(b) != 32 {
		t.Fatalf("private key length %d", len(b))
	}
	back, err := ParsePrivateKey(b)
	if err != nil {
		t.Fatal(err)
	}
	// A restarted server with the persisted key must open boxes sealed to
	// the original public key (the cluster failover scenario).
	box, err := Seal(pub, []byte("sealed before restart"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(back, box); err != nil {
		t.Fatalf("restored key failed to open: %v", err)
	}
	if _, err := ParsePrivateKey(b[:31]); err == nil {
		t.Error("short private key accepted")
	}
}

func TestPublicKeyEncoding(t *testing.T) {
	pub, _, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	b := pub.Bytes()
	if len(b) != 32 {
		t.Fatalf("public key length %d", len(b))
	}
	back, err := ParsePublicKey(b)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), b) {
		t.Error("public key round trip failed")
	}
	if _, err := ParsePublicKey(b[:31]); err == nil {
		t.Error("short public key accepted")
	}
}

// seedLabel1 is the label internal/core derives server 1's PRG seed under:
// "prio/seed/v1" ‖ u32be(1).
var seedLabel1 = append([]byte("prio/seed/v1"), 0, 0, 0, 1)

// fixedKey is the recipient key the core fuzz corpus is sealed to.
func fixedKey(t *testing.T) *PrivateKey {
	t.Helper()
	priv, err := ParsePrivateKey(bytes.Repeat([]byte{0x42}, 32))
	if err != nil {
		t.Fatal(err)
	}
	return priv
}

func TestSecretAgrees(t *testing.T) {
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEphemeral()
	if err != nil {
		t.Fatal(err)
	}
	for _, label := range [][]byte{seedLabel1, aeadLabel, nil} {
		sent, err := e.Secret(pub, label)
		if err != nil {
			t.Fatal(err)
		}
		got, err := priv.Secret(e.Public(), label)
		if err != nil {
			t.Fatal(err)
		}
		if len(sent) != 32 || !bytes.Equal(sent, got) {
			t.Errorf("label %q: sender secret %x, recipient secret %x", label, sent, got)
		}
	}
}

// TestSecretsAreSeparated: one ephemeral yields a different secret for
// every recipient and every label, and none of the seed secrets is a box's
// AEAD key.
func TestSecretsAreSeparated(t *testing.T) {
	e, err := NewEphemeral()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]string{}
	for r := 0; r < 3; r++ {
		pub, _, err := GenerateKey()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			label := append([]byte("prio/seed/v1"), 0, 0, 0, byte(i))
			if i == 3 {
				label = aeadLabel
			}
			sec, err := e.Secret(pub, label)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("recipient %d, label %q", r, label)
			if prev, dup := seen[string(sec)]; dup {
				t.Errorf("%s and %s derive the same secret", prev, name)
			}
			seen[string(sec)] = name
		}
	}
}

// TestEncapsulationBitFlips: every bit of the encapsulation feeds the
// secret, bit 255 included — X25519 ignores that bit, so only the raw-bytes
// salt binds it.
func TestEncapsulationBitFlips(t *testing.T) {
	priv := fixedKey(t)
	e, err := NewEphemeral()
	if err != nil {
		t.Fatal(err)
	}
	want, err := priv.Secret(e.Public(), seedLabel1)
	if err != nil {
		t.Fatal(err)
	}
	for bit := 0; bit < 8*EncapSize; bit++ {
		epk := append([]byte(nil), e.Public()...)
		epk[bit/8] ^= 1 << (bit % 8)
		got, err := priv.Secret(epk, seedLabel1)
		if err != nil && bit != 255 {
			continue // a low-order point: refused, which is also fine
		}
		if err != nil || bytes.Equal(got, want) {
			t.Errorf("bit %d flipped: secret %x, err %v; want a different secret", bit, got, err)
		}
	}
}

// lowOrder are the encapsulations whose X25519 output is all zeros for
// every key (RFC 7748 §6.1): u = 0, 1, the two points of order 8, p − 1, p
// and p + 1.
var lowOrder = []string{
	"0000000000000000000000000000000000000000000000000000000000000000",
	"0100000000000000000000000000000000000000000000000000000000000000",
	"e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800",
	"5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157",
	"ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
	"eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f",
}

// ecdhSecret is PrivateKey.Secret computed over crypto/ecdh.
func ecdhSecret(t *testing.T, priv *PrivateKey, epk, label []byte) []byte {
	t.Helper()
	k, err := ecdh.X25519().NewPrivateKey(priv.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	pk, err := ecdh.X25519().NewPublicKey(epk)
	if err != nil {
		t.Fatal(err)
	}
	shared, err := k.ECDH(pk)
	if err != nil {
		t.Fatal(err)
	}
	return derive(shared, epk, k.PublicKey().Bytes(), label)
}

// TestLowOrderEncapsulationRefused: every low-order encapsulation, also
// with bit 255 set, is refused alone and at every position of a batch of 16,
// whose 15 other encapsulations still derive crypto/ecdh's secrets. So is
// an encapsulation of the wrong length.
func TestLowOrderEncapsulationRefused(t *testing.T) {
	priv := fixedKey(t)
	for name, epk := range map[string][]byte{
		"31 bytes": make([]byte, EncapSize-1),
		"33 bytes": make([]byte, EncapSize+1),
	} {
		if _, err := priv.Secret(epk, seedLabel1); !errors.Is(err, ErrDecrypt) {
			t.Errorf("%s: err = %v, want ErrDecrypt", name, err)
		}
	}

	const n = 16
	honest := make([][]byte, n)
	want := make([][]byte, n)
	for i := range honest {
		e, err := NewEphemeral()
		if err != nil {
			t.Fatal(err)
		}
		honest[i] = e.Public()
		want[i] = ecdhSecret(t, priv, honest[i], seedLabel1)
	}
	for _, s := range lowOrder {
		for _, high := range []byte{0, 0x80} {
			bad, _ := hex.DecodeString(s)
			bad[31] |= high
			if _, err := priv.Secret(bad, seedLabel1); !errors.Is(err, ErrDecrypt) {
				t.Errorf("u %x alone: err = %v, want ErrDecrypt", bad, err)
			}
			for pos := 0; pos < n; pos++ {
				epks := append([][]byte(nil), honest...)
				epks[pos] = bad
				for i, a := range priv.Agree(epks) {
					got, err := a.Secret(seedLabel1)
					switch {
					case i == pos && !errors.Is(err, ErrDecrypt):
						t.Errorf("u %x at %d: err = %v, want ErrDecrypt", bad, pos, err)
					case i != pos && (err != nil || !bytes.Equal(got, want[i])):
						t.Errorf("u %x at %d: neighbour %d derives %x, %v; want %x", bad, pos, i, got, err, want[i])
					}
				}
			}
		}
	}
}

// TestAgreeMatchesECDH: a batch agreement derives, for every encapsulation,
// the secret and the box key crypto/ecdh's agreement does, and opens that
// encapsulation's box.
func TestAgreeMatchesECDH(t *testing.T) {
	pub, priv, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	epks := make([][]byte, 17)
	boxes := make([][]byte, len(epks))
	for i := range epks {
		e, err := NewEphemeral(pub)
		if err != nil {
			t.Fatal(err)
		}
		epks[i] = e.Public()
		if boxes[i], err = e.Seal(pub, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	agrs := priv.Agree(epks)
	for i := range agrs {
		for _, label := range [][]byte{seedLabel1, aeadLabel} {
			got, err := agrs[i].Secret(label)
			if want := ecdhSecret(t, priv, epks[i], label); err != nil || !bytes.Equal(got, want) {
				t.Errorf("%d: secret %x, %v; want %x", i, got, err, want)
			}
		}
		pt, err := agrs[i].OpenTo(nil, boxes[i])
		if err != nil || !bytes.Equal(pt, []byte{byte(i)}) {
			t.Errorf("%d: OpenTo = %x, %v", i, pt, err)
		}
		if _, err := agrs[i].OpenTo(nil, boxes[(i+1)%len(boxes)]); !errors.Is(err, ErrDecrypt) {
			t.Errorf("%d: opened another encapsulation's box: %v", i, err)
		}
	}
}

// TestEphemeralBatchMatchesUnbatched: the secrets of an ephemeral's batch
// with its recipients equal the ones it derives for a recipient it was not
// given, and crypto/ecdh's.
func TestEphemeralBatchMatchesUnbatched(t *testing.T) {
	pubs := make([]*PublicKey, 5)
	privs := make([]*PrivateKey, 5)
	for i := range pubs {
		var err error
		if pubs[i], privs[i], err = GenerateKey(); err != nil {
			t.Fatal(err)
		}
	}
	scalar := bytes.Repeat([]byte{0x07}, 32)
	batched, err := newEphemeral(bytes.NewReader(scalar), pubs...)
	if err != nil {
		t.Fatal(err)
	}
	alone, err := newEphemeral(bytes.NewReader(scalar))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(batched.Public(), alone.Public()) {
		t.Fatalf("batched encapsulation %x, unbatched %x", batched.Public(), alone.Public())
	}
	for i, pub := range pubs {
		a, errA := batched.Secret(pub, seedLabel1)
		b, errB := alone.Secret(pub, seedLabel1)
		want := ecdhSecret(t, privs[i], alone.Public(), seedLabel1)
		if errA != nil || errB != nil || !bytes.Equal(a, want) || !bytes.Equal(b, want) {
			t.Errorf("recipient %d: batched %x (%v), unbatched %x (%v), want %x", i, a, errA, b, errB, want)
		}
	}
	low, err := ParsePublicKey(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEphemeral(pubs[0], low)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Secret(low, seedLabel1); err == nil {
		t.Error("a low-order recipient key derived a secret")
	}
	if _, err := e.Secret(pubs[0], seedLabel1); err != nil {
		t.Errorf("a low-order recipient in the batch failed its neighbour: %v", err)
	}
}

// BenchmarkAgreeBatch is a seed server's key agreements for one full Round1
// batch: 16 encapsulations, one shared inversion.
func BenchmarkAgreeBatch(b *testing.B) {
	_, priv, err := GenerateKey()
	if err != nil {
		b.Fatal(err)
	}
	epks := make([][]byte, 16)
	for i := range epks {
		e, err := NewEphemeral()
		if err != nil {
			b.Fatal(err)
		}
		epks[i] = e.Public()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		priv.Agree(epks)
	}
}

// TestEphemeralSealOpens: boxes one ephemeral seals to several recipients
// carry its encapsulation and open, each with its own key only, through
// the unchanged Open.
func TestEphemeralSealOpens(t *testing.T) {
	e, err := NewEphemeral()
	if err != nil {
		t.Fatal(err)
	}
	pubs := make([]*PublicKey, 2)
	privs := make([]*PrivateKey, 2)
	for i := range pubs {
		if pubs[i], privs[i], err = GenerateKey(); err != nil {
			t.Fatal(err)
		}
	}
	for i := range pubs {
		pt := []byte(fmt.Sprintf("share for %d", i))
		box, err := e.Seal(pubs[i], pt)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(box[:EncapSize], e.Public()) {
			t.Error("box does not start with the ephemeral's encapsulation")
		}
		got, err := Open(privs[i], box)
		if err != nil || !bytes.Equal(got, pt) {
			t.Errorf("recipient %d: Open = %q, %v", i, got, err)
		}
		if _, err := Open(privs[1-i], box); err == nil {
			t.Errorf("recipient %d's box opened with the other key", i)
		}
	}
}

// TestSeedGoldenVector pins the encapsulation and server 1's seed for a
// fixed ephemeral scalar (32 × 0x07) and the fixed recipient key. It is a
// compatibility contract between clients and servers of any version, like
// internal/share's TestExpandGoldenStream: if it changes, a server can no
// longer derive the seeds a deployed client sent it.
func TestSeedGoldenVector(t *testing.T) {
	e, err := newEphemeral(bytes.NewReader(bytes.Repeat([]byte{0x07}, 32)))
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantEncap = "13be4feaeaf204c7fd3358fc9c00721881d174278128227ec674f37f7fe97b6d"
		wantSeed  = "83d0f73b6406a4f4a1d0426f34fca3f7"
	)
	if got := hex.EncodeToString(e.Public()); got != wantEncap {
		t.Errorf("encapsulation %s, want %s", got, wantEncap)
	}
	priv := fixedKey(t)
	for side, secret := range map[string]func() ([]byte, error){
		"sender":    func() ([]byte, error) { return e.Secret(priv.Public(), seedLabel1) },
		"recipient": func() ([]byte, error) { return priv.Secret(e.Public(), seedLabel1) },
	} {
		sec, err := secret()
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(sec[:16]); got != wantSeed {
			t.Errorf("%s seed %s, want %s", side, got, wantSeed)
		}
	}
}

// TestPublicKeyEqual: Equal compares points, not encodings.
func TestPublicKeyEqual(t *testing.T) {
	pub, _, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := GenerateKey()
	if err != nil {
		t.Fatal(err)
	}
	high := pub.Bytes()
	high[31] ^= 0x80
	// u = 9 is also encoded as 9 + (2²⁵⁵ − 19).
	nine := make([]byte, 32)
	nine[0] = 9
	unreduced := bytes.Repeat([]byte{0xff}, 32)
	unreduced[0] = 0xed + 9
	unreduced[31] = 0x7f
	parse := func(b []byte) *PublicKey {
		k, err := ParsePublicKey(b)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	cases := []struct {
		name string
		a, b *PublicKey
		want bool
	}{
		{"same key", pub, parse(pub.Bytes()), true},
		{"bit 255 set", pub, parse(high), true},
		{"unreduced", parse(nine), parse(unreduced), true},
		{"different keys", pub, other, false},
	}
	for _, c := range cases {
		if got := c.a.Equal(c.b); got != c.want {
			t.Errorf("%s: Equal = %v, want %v", c.name, got, c.want)
		}
	}
}
