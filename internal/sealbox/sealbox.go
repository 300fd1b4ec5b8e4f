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
package sealbox

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"io"
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
	k *ecdh.PublicKey
}

// PrivateKey opens boxes sealed to the matching PublicKey.
type PrivateKey struct {
	k *ecdh.PrivateKey
}

// GenerateKey creates a fresh X25519 key pair.
func GenerateKey() (*PublicKey, *PrivateKey, error) {
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	return &PublicKey{k: priv.PublicKey()}, &PrivateKey{k: priv}, nil
}

// Bytes returns the 32-byte wire encoding of the public key.
func (p *PublicKey) Bytes() []byte { return p.k.Bytes() }

// Equal reports whether p and q are the same X25519 point, however each is
// encoded: a u-coordinate with bit 255 set, or one not reduced mod 2²⁵⁵−19,
// agrees exactly as its canonical form does.
func (p *PublicKey) Equal(q *PublicKey) bool {
	return canonical(p.k.Bytes()) == canonical(q.k.Bytes())
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
	k, err := ecdh.X25519().NewPublicKey(b)
	if err != nil {
		return nil, err
	}
	return &PublicKey{k: k}, nil
}

// Public returns the public half of the key.
func (p *PrivateKey) Public() *PublicKey { return &PublicKey{k: p.k.PublicKey()} }

// Bytes returns the 32-byte encoding of the private scalar, for servers that
// persist their identity across restarts (cmd/prio-server -key-file). Treat
// the output as a secret.
func (p *PrivateKey) Bytes() []byte { return p.k.Bytes() }

// ParsePrivateKey decodes a 32-byte X25519 private key produced by
// PrivateKey.Bytes.
func ParsePrivateKey(b []byte) (*PrivateKey, error) {
	k, err := ecdh.X25519().NewPrivateKey(b)
	if err != nil {
		return nil, err
	}
	return &PrivateKey{k: k}, nil
}

// Secret derives the 32-byte secret the encapsulation epk shares with this
// key under label: what Ephemeral.Secret computed on the sender's side. An
// encapsulation that is not 32 bytes, or a low-order point, is ErrDecrypt.
func (p *PrivateKey) Secret(epk, label []byte) ([]byte, error) {
	pk, err := ecdh.X25519().NewPublicKey(epk)
	if err != nil {
		return nil, ErrDecrypt
	}
	shared, err := p.k.ECDH(pk)
	if err != nil {
		return nil, ErrDecrypt
	}
	return derive(shared, epk, p.k.PublicKey().Bytes(), label), nil
}

// Ephemeral is a sender's one-use key pair: one per submission, whatever
// the number of recipients (see the package doc for why it must never be
// reused across submissions).
type Ephemeral struct {
	k   *ecdh.PrivateKey
	epk []byte
}

// NewEphemeral draws a fresh ephemeral key pair.
func NewEphemeral() (*Ephemeral, error) { return newEphemeral(rand.Reader) }

// newEphemeral reads the private scalar from r, which lets a test pin one.
func newEphemeral(r io.Reader) (*Ephemeral, error) {
	var scalar [32]byte
	if _, err := io.ReadFull(r, scalar[:]); err != nil {
		return nil, err
	}
	k, err := ecdh.X25519().NewPrivateKey(scalar[:])
	if err != nil {
		return nil, err
	}
	return &Ephemeral{k: k, epk: k.PublicKey().Bytes()}, nil
}

// Public returns the 32-byte encapsulation. The caller must not modify it.
func (e *Ephemeral) Public() []byte { return e.epk }

// Secret derives the 32-byte secret this ephemeral shares with recipient
// under label; recipient's PrivateKey.Secret derives the same one from
// Public.
func (e *Ephemeral) Secret(recipient *PublicKey, label []byte) ([]byte, error) {
	shared, err := e.k.ECDH(recipient.k)
	if err != nil {
		return nil, err
	}
	return derive(shared, e.epk, recipient.k.Bytes(), label), nil
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
	out = append(out, e.epk...)
	nonce := make([]byte, nonceSize)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, err
	}
	out = append(out, nonce...)
	return aead.Seal(out, nonce, plaintext, e.epk), nil
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
	e, err := NewEphemeral()
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
	epk := box[:EncapSize]
	nonce := box[EncapSize : EncapSize+nonceSize]
	ct := box[EncapSize+nonceSize:]
	key, err := priv.Secret(epk, aeadLabel)
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
