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

// Overhead is the number of bytes Seal adds to a plaintext.
const Overhead = 32 + nonceSize + 16

const nonceSize = 12

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

// deriveKey computes the AEAD key for (shared secret, epk, rpk): HKDF-SHA256
// (RFC 5869) with the concatenated public keys as salt, inlined over
// crypto/hmac so the module builds on every toolchain go.mod admits.
func deriveKey(shared, epk, rpk []byte) ([]byte, error) {
	salt := make([]byte, 0, 64)
	salt = append(salt, epk...)
	salt = append(salt, rpk...)
	// Extract: PRK = HMAC(salt, IKM).
	ext := hmac.New(sha256.New, salt)
	ext.Write(shared)
	prk := ext.Sum(nil)
	// Expand: one block suffices for a 32-byte output (SHA-256 width).
	exp := hmac.New(sha256.New, prk)
	exp.Write([]byte("prio/sealbox/v1"))
	exp.Write([]byte{1})
	return exp.Sum(nil), nil
}

// Seal encrypts plaintext to the recipient, prepending the ephemeral public
// key and nonce.
func Seal(recipient *PublicKey, plaintext []byte) ([]byte, error) {
	eph, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	shared, err := eph.ECDH(recipient.k)
	if err != nil {
		return nil, err
	}
	epk := eph.PublicKey().Bytes()
	key, err := deriveKey(shared, epk, recipient.k.Bytes())
	if err != nil {
		return nil, err
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(plaintext)+Overhead)
	out = append(out, epk...)
	nonce := make([]byte, nonceSize)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, err
	}
	out = append(out, nonce...)
	return aead.Seal(out, nonce, plaintext, epk), nil
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
	epkBytes := box[:32]
	nonce := box[32 : 32+nonceSize]
	ct := box[32+nonceSize:]
	epk, err := ecdh.X25519().NewPublicKey(epkBytes)
	if err != nil {
		return nil, ErrDecrypt
	}
	shared, err := priv.k.ECDH(epk)
	if err != nil {
		return nil, ErrDecrypt
	}
	key, err := deriveKey(shared, epkBytes, priv.k.PublicKey().Bytes())
	if err != nil {
		return nil, ErrDecrypt
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, ErrDecrypt
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, ErrDecrypt
	}
	pt, err := aead.Open(dst, nonce, ct, epkBytes)
	if err != nil {
		return nil, ErrDecrypt
	}
	return pt, nil
}
