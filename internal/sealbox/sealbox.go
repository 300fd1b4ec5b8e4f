// Package sealbox provides anonymous public-key authenticated encryption of
// client submissions, standing in for the NaCl "box" primitive the paper's
// prototype uses (Section 6: clients encrypt and sign their messages to
// servers, which obviates client-to-server TLS).
//
// Construction: an ephemeral X25519 key agreement with the recipient's
// static key, HKDF-SHA256 key derivation bound to both public keys, and
// AES-256-GCM. Each box is
//
//	ephemeral_pk (32) ‖ nonce (12) ‖ AES-GCM ciphertext.
//
// Like NaCl's sealed boxes, sender anonymity is inherent: the ephemeral key
// identifies nobody, which is what a private aggregation system wants from
// its upload path.
//
// # The ephemeral key as a KEM
//
// An Ephemeral is one sender key pair used toward several recipients, the
// way HPKE (RFC 9180) uses an encapsulation: its 32-byte public key is the
// encapsulation, and for each recipient the sender and the recipient's
// PrivateKey derive the same secrets from it,
//
//	Secret(recipient, label) = HKDF-SHA256(IKM  = X25519(e, recipient),
//	                                       salt = epk ‖ recipient public key,
//	                                       info = label)
//
// with the raw epk bytes in the salt, so every encoding of the ephemeral
// point yields its own secrets (X25519 itself ignores bit 255). A box's
// AEAD key is the secret under the label "prio/sealbox/v1"; a Prio client
// derives each PRG seed under a label naming the server's index instead, so
// a seed server's whole bundle is the encapsulation and no box is sent to
// it at all (internal/core).
//
// One ephemeral per submission, shared by all of its bundles, reveals
// nothing that batch position does not: the leader relays a submission's
// bundles to every server at one position of one batch, so the servers
// already know which of their bundles belong together. Each secret is a
// function of a different X25519 agreement, which only the sender and that
// one recipient can compute.
//
// Invariant: an encapsulation is never reused across submissions. Two
// submissions under one ephemeral would give every seed server the same
// share of both, so the leader's two explicit shares would differ by
// exactly x_a − x_b. Callers draw a fresh Ephemeral per submission.
//
// # X25519
//
// Every X25519 here is internal/sealbox/x25519, crypto/ecdh being only the
// tests' oracle. That package is the RFC 7748 §5 Montgomery ladder over the
// GF(2²⁵⁵−19) arithmetic of Go's crypto/internal/fips140/edwards25519/field
// (Copyright 2017 The Go Authors; BSD-style licence, kept in
// x25519/LICENSE): its amd64 multiply and square assembly unchanged, its
// generic Go on every other GOARCH and under the purego build tag. Two
// things differ from crypto/ecdh's ladder, and neither changes an output:
//
//   - Lazy reduction. The ladder's additions and subtractions skip the
//     carry pass, since each one feeds a multiply, a square or the
//     multiplication by 121666, which are exact for limbs below 2⁵⁴. Sums
//     and differences of reduced values (limbs below 2⁵¹ + 2²⁴) stay below
//     2⁵³, one bit inside that.
//   - One inversion per batch. x25519.ScalarMultBatch runs n ladders under
//     one scalar and turns all n projective results (X:Z) into u = X/Z with
//     one inversion (Montgomery's simultaneous inversion: 3(n−1)
//     multiplications and one exponentiation, not n exponentiations). A
//     server agrees one Round1 batch's encapsulations this way
//     (PrivateKey.Agree); a client its ephemeral public key and its s
//     recipients' agreements (NewEphemeral).
//
// A low-order encapsulation ends its ladder at Z = 0, which would zero the
// batch's shared product and every result with it. Each Z is tested and, if
// zero, swapped for one (its X for zero) by a constant-time select, so that
// encapsulation's agreement is the all-zero output that is refused here,
// alone. The batch stays constant time in the secret scalar: each ladder
// is, and the normalisation performs the same operations for every input of
// a given length — the zero test and the select included.
package sealbox

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"io"

	"prio/internal/sealbox/x25519"
)

// EncapSize is the byte length of an encapsulation: an X25519 public key.
const EncapSize = 32

// Overhead is the number of bytes Seal adds to a plaintext.
const Overhead = EncapSize + nonceSize + 16

const nonceSize = 12

// aeadLabel is the HKDF info a box's AEAD key is derived under.
var aeadLabel = []byte("prio/sealbox/v1")

// ErrDecrypt reports an undecryptable or tampered box.
var ErrDecrypt = errors.New("sealbox: decryption failed")

// PublicKey identifies a recipient (a Prio server).
type PublicKey struct {
	b [32]byte
}

// PrivateKey opens boxes sealed to the matching PublicKey.
type PrivateKey struct {
	scalar, pub [32]byte
}

// GenerateKey creates a fresh X25519 key pair.
func GenerateKey() (*PublicKey, *PrivateKey, error) {
	var scalar [32]byte
	if _, err := io.ReadFull(rand.Reader, scalar[:]); err != nil {
		return nil, nil, err
	}
	priv := newPrivateKey(&scalar)
	return priv.Public(), priv, nil
}

// newPrivateKey is the key with this scalar and its public key.
func newPrivateKey(scalar *[32]byte) *PrivateKey {
	k := &PrivateKey{scalar: *scalar}
	x25519.ScalarMult(&k.pub, &k.scalar, &x25519.Basepoint)
	return k
}

// Bytes returns the 32-byte wire encoding of the public key.
func (p *PublicKey) Bytes() []byte { return append([]byte(nil), p.b[:]...) }

// Equal reports whether p and q are the same X25519 point, however each is
// encoded: a u-coordinate with bit 255 set, or one not reduced mod 2²⁵⁵−19,
// agrees exactly as its canonical form does.
func (p *PublicKey) Equal(q *PublicKey) bool {
	return canonical(p.b[:]) == canonical(q.b[:])
}

// canonical is the reduced little-endian u-coordinate of an X25519 public
// key encoding: bit 255 cleared, then the 19 values in [2²⁵⁵−19, 2²⁵⁵)
// reduced.
func canonical(u []byte) [32]byte {
	var c [32]byte
	copy(c[:], u)
	c[31] &= 0x7f
	if c[31] != 0x7f || c[0] < 0xed {
		return c
	}
	for _, v := range c[1:31] {
		if v != 0xff {
			return c
		}
	}
	var r [32]byte
	r[0] = c[0] - 0xed
	return r
}

// ParsePublicKey decodes a 32-byte X25519 public key.
func ParsePublicKey(b []byte) (*PublicKey, error) {
	if len(b) != 32 {
		return nil, errors.New("sealbox: invalid public key")
	}
	return &PublicKey{b: [32]byte(b)}, nil
}

// Public returns the public half of the key.
func (p *PrivateKey) Public() *PublicKey { return &PublicKey{b: p.pub} }

// Bytes returns the 32-byte encoding of the private scalar, for servers that
// persist their identity across restarts (cmd/prio-server -key-file). Treat
// the output as a secret.
func (p *PrivateKey) Bytes() []byte { return append([]byte(nil), p.scalar[:]...) }

// ParsePrivateKey decodes a 32-byte X25519 private key produced by
// PrivateKey.Bytes.
func ParsePrivateKey(b []byte) (*PrivateKey, error) {
	if len(b) != 32 {
		return nil, errors.New("sealbox: invalid private key size")
	}
	return newPrivateKey((*[32]byte)(b)), nil
}

// Secret derives the 32-byte secret the encapsulation epk shares with this
// key under label: what Ephemeral.Secret computed on the sender's side. An
// encapsulation that is not 32 bytes, or a low-order point, is ErrDecrypt.
func (p *PrivateKey) Secret(epk, label []byte) ([]byte, error) {
	return p.Agree([][]byte{epk})[0].Secret(label)
}

// Agreement is one encapsulation's X25519 agreement with a PrivateKey: it
// derives that encapsulation's secrets, and opens its box, without another
// scalar multiplication.
type Agreement struct {
	epk, shared, rpk [32]byte
	ok               bool
}

// Agree runs the agreements of this key with every encapsulation in epks as
// one batch, sharing a single field inversion (x25519.ScalarMultBatch). An
// encapsulation that is not 32 bytes, or a low-order point, fails alone: its
// Agreement refuses every derivation with ErrDecrypt, and the others are
// unaffected.
func (p *PrivateKey) Agree(epks [][]byte) []Agreement {
	out := make([]Agreement, len(epks))
	pts := make([][32]byte, 0, len(epks))
	for i, epk := range epks {
		out[i].rpk = p.pub
		if len(epk) == EncapSize {
			out[i].epk = [32]byte(epk)
			pts = append(pts, out[i].epk)
		}
	}
	x25519.ScalarMultBatch(pts, pts, &p.scalar)
	for i, epk := range epks {
		if len(epk) == EncapSize {
			out[i].shared, pts = pts[0], pts[1:]
			out[i].ok = !allZero(&out[i].shared)
		}
	}
	return out
}

// Secret derives the 32-byte secret of the agreement's encapsulation under
// label, equal to PrivateKey.Secret's.
func (a *Agreement) Secret(label []byte) ([]byte, error) {
	if !a.ok {
		return nil, ErrDecrypt
	}
	return derive(a.shared[:], a.epk[:], a.rpk[:], label), nil
}

// OpenTo is the package OpenTo for a box that starts with the agreement's
// encapsulation; any other box is ErrDecrypt.
func (a *Agreement) OpenTo(dst, box []byte) ([]byte, error) {
	if len(box) < Overhead || !bytes.Equal(box[:EncapSize], a.epk[:]) {
		return nil, ErrDecrypt
	}
	epk := box[:EncapSize]
	nonce := box[EncapSize : EncapSize+nonceSize]
	ct := box[EncapSize+nonceSize:]
	key, err := a.Secret(aeadLabel)
	if err != nil {
		return nil, ErrDecrypt
	}
	aead, err := newAEAD(key)
	if err != nil {
		return nil, ErrDecrypt
	}
	pt, err := aead.Open(dst, nonce, ct, epk)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}

// allZero reports whether b is all zeros, in constant time: X25519's output
// for a low-order point (RFC 7748 §6.1).
func allZero(b *[32]byte) bool {
	var acc byte
	for _, v := range b {
		acc |= v
	}
	return acc == 0
}

// Ephemeral is a sender's one-use key pair: one per submission, whatever
// the number of recipients (see the package doc for why it must never be
// reused across submissions).
type Ephemeral struct {
	scalar, epk [32]byte
	recipients  []*PublicKey
	shared      [][32]byte // X25519 with recipients[i]
}

// NewEphemeral draws a fresh ephemeral key pair and runs its agreement with
// each of recipients, in one batch with its own public key: len+1 scalar
// multiplications under one field inversion.
func NewEphemeral(recipients ...*PublicKey) (*Ephemeral, error) {
	return newEphemeral(rand.Reader, recipients...)
}

// newEphemeral reads the private scalar from r, which lets a test pin one.
func newEphemeral(r io.Reader, recipients ...*PublicKey) (*Ephemeral, error) {
	e := &Ephemeral{recipients: recipients}
	if _, err := io.ReadFull(r, e.scalar[:]); err != nil {
		return nil, err
	}
	pts := make([][32]byte, 1+len(recipients))
	pts[0] = x25519.Basepoint
	for i, rc := range recipients {
		pts[1+i] = rc.b
	}
	x25519.ScalarMultBatch(pts, pts, &e.scalar)
	e.epk, e.shared = pts[0], pts[1:]
	return e, nil
}

// Public returns the 32-byte encapsulation. The caller must not modify it.
func (e *Ephemeral) Public() []byte { return e.epk[:] }

// Secret derives the 32-byte secret this ephemeral shares with recipient
// under label; recipient's PrivateKey.Secret derives the same one from
// Public. A recipient NewEphemeral was given costs no scalar multiplication
// here; any other costs one. A low-order recipient key is an error.
func (e *Ephemeral) Secret(recipient *PublicKey, label []byte) ([]byte, error) {
	shared, ok := e.agreement(recipient)
	if !ok {
		x25519.ScalarMult(&shared, &e.scalar, &recipient.b)
	}
	if allZero(&shared) {
		return nil, errors.New("sealbox: low-order recipient key")
	}
	return derive(shared[:], e.epk[:], recipient.b[:], label), nil
}

// agreement is the precomputed X25519 with recipient, if NewEphemeral ran it.
func (e *Ephemeral) agreement(recipient *PublicKey) ([32]byte, bool) {
	for i, rc := range e.recipients {
		if rc.b == recipient.b {
			return e.shared[i], true
		}
	}
	return [32]byte{}, false
}

// Seal encrypts plaintext to recipient under this ephemeral, prepending the
// encapsulation and a nonce; Open opens it.
func (e *Ephemeral) Seal(recipient *PublicKey, plaintext []byte) ([]byte, error) {
	key, err := e.Secret(recipient, aeadLabel)
	if err != nil {
		return nil, err
	}
	aead, err := newAEAD(key)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(plaintext)+Overhead)
	out = append(out, e.epk[:]...)
	nonce := make([]byte, nonceSize)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, err
	}
	out = append(out, nonce...)
	return aead.Seal(out, nonce, plaintext, e.epk[:]), nil
}

// derive computes HKDF-SHA256 (RFC 5869) of the shared secret with salt
// epk ‖ rpk and info label, one 32-byte block, inlined over crypto/hmac so
// the module builds on every toolchain go.mod admits.
func derive(shared, epk, rpk, label []byte) []byte {
	salt := make([]byte, 0, 2*EncapSize)
	salt = append(salt, epk...)
	salt = append(salt, rpk...)
	// Extract: PRK = HMAC(salt, IKM).
	ext := hmac.New(sha256.New, salt)
	ext.Write(shared)
	prk := ext.Sum(nil)
	// Expand: one block suffices for a 32-byte output (SHA-256 width).
	exp := hmac.New(sha256.New, prk)
	exp.Write(label)
	exp.Write([]byte{1})
	return exp.Sum(nil)
}

// newAEAD is AES-256-GCM under key.
func newAEAD(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// Seal encrypts plaintext to the recipient under a fresh ephemeral key.
func Seal(recipient *PublicKey, plaintext []byte) ([]byte, error) {
	e, err := NewEphemeral(recipient)
	if err != nil {
		return nil, err
	}
	return e.Seal(recipient, plaintext)
}

// Open decrypts a box produced by Seal for this private key into a fresh
// plaintext slice.
func Open(priv *PrivateKey, box []byte) ([]byte, error) {
	return OpenTo(priv, nil, box)
}

// OpenTo is Open appending the plaintext to dst, which it returns extended;
// a dst with len(box)-Overhead spare capacity makes the open copy-free,
// which is how servers unseal a 41 kB explicit share into a pooled buffer.
// dst must not overlap box. On failure the result is nil and dst's spare
// capacity holds nothing of the plaintext.
func OpenTo(priv *PrivateKey, dst, box []byte) ([]byte, error) {
	if len(box) < Overhead {
		return nil, ErrDecrypt
	}
	return priv.Agree([][]byte{box[:EncapSize]})[0].OpenTo(dst, box)
}
