package btcrypto

import (
	"bytes"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"sync"
)

// This file implements the Secure Simple Pairing cryptographic functions
// (Core spec Vol 2 Part H §7): the commitment function f1, the numeric
// verification function g, the link key derivation function f2 and the
// check function f3, all built on SHA-256 / HMAC-SHA-256, plus a P-256
// ECDH key pair wrapper.

// keyIDbtlk is the f2 key ID, the ASCII string "btlk".
var keyIDbtlk = [4]byte{0x62, 0x74, 0x6c, 0x6b}

// hmacBlock is the SHA-256 block size, the HMAC key pad length.
const hmacBlock = 64

// hmacMaxMsg bounds the messages hmac128 handles on its stack buffer; the
// longest SSP message (f1: two X coordinates and Z) is 65 bytes.
const hmacMaxMsg = 128

// hmac128 is HMAC-SHA-256(key, msg) truncated to 128 bits. Keys of at
// most one block and messages up to hmacMaxMsg bytes — every f1/f2/f3
// call — are hashed as the two RFC 2104 passes over a stack buffer, with
// no allocation; anything larger goes through crypto/hmac.
func hmac128(key, msg []byte) [16]byte {
	if len(key) > hmacBlock || len(msg) > hmacMaxMsg {
		// Cloned so that the hash.Hash writes of this rare path do not
		// make every caller's message buffer escape to the heap.
		return hmac128Std(bytes.Clone(key), bytes.Clone(msg))
	}
	var inner [hmacBlock + hmacMaxMsg]byte
	var outer [hmacBlock + sha256.Size]byte
	copy(inner[:], key)
	copy(outer[:], key)
	for i := 0; i < hmacBlock; i++ {
		inner[i] ^= 0x36
		outer[i] ^= 0x5c
	}
	n := copy(inner[hmacBlock:], msg)
	ih := sha256.Sum256(inner[:hmacBlock+n])
	copy(outer[hmacBlock:], ih[:])
	sum := sha256.Sum256(outer[:])
	return [16]byte(sum[:16])
}

// hmac128Std is hmac128 through crypto/hmac.
func hmac128Std(key, msg []byte) [16]byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(msg)
	var out [16]byte
	copy(out[:], mac.Sum(nil))
	return out
}

// F1 computes the SSP commitment: HMAC-SHA-256 keyed with the nonce X over
// the two ECDH public X-coordinates U and V and the one-byte value Z,
// truncated to 128 bits.
func F1(u, v [32]byte, x [16]byte, z byte) [16]byte {
	var buf [65]byte
	msg := append(buf[:0], u[:]...)
	msg = append(msg, v[:]...)
	msg = append(msg, z)
	return hmac128(x[:], msg)
}

// G computes the 32-bit numeric verification value from the public key
// X-coordinates and both nonces; the six-digit number shown to users is
// G(...) mod 1e6.
func G(u, v [32]byte, x, y [16]byte) uint32 {
	var buf [96]byte
	msg := append(buf[:0], u[:]...)
	msg = append(msg, v[:]...)
	msg = append(msg, x[:]...)
	msg = append(msg, y[:]...)
	sum := sha256.Sum256(msg)
	return binary.BigEndian.Uint32(sum[28:32])
}

// SixDigits converts a g output to the displayed confirmation value.
func SixDigits(g uint32) uint32 { return g % 1_000_000 }

// F2 derives the link key from the DHKey W, both nonces, the fixed key ID
// "btlk" and both device addresses (claimant first, per spec order: A1 is
// the master/initiating device address).
func F2(w []byte, n1, n2 [16]byte, a1, a2 [6]byte) [16]byte {
	var buf [48]byte
	msg := append(buf[:0], n1[:]...)
	msg = append(msg, n2[:]...)
	msg = append(msg, keyIDbtlk[:]...)
	msg = append(msg, a1[:]...)
	msg = append(msg, a2[:]...)
	return hmac128(w, msg)
}

// F3 computes the authentication stage 2 check value from the DHKey W,
// both nonces, the random value R, the 3-byte IO capability field and the
// two device addresses.
func F3(w []byte, n1, n2, r [16]byte, ioCap [3]byte, a1, a2 [6]byte) [16]byte {
	var buf [63]byte
	msg := append(buf[:0], n1[:]...)
	msg = append(msg, n2[:]...)
	msg = append(msg, r[:]...)
	msg = append(msg, ioCap[:]...)
	msg = append(msg, a1[:]...)
	msg = append(msg, a2[:]...)
	return hmac128(w, msg)
}

// p256Order is n, the order of the P-256 base point, big-endian.
var p256Order = [32]byte{
	0xff, 0xff, 0xff, 0xff, 0x00, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
	0xbc, 0xe6, 0xfa, 0xad, 0xa7, 0x17, 0x9e, 0x84, 0xf3, 0xb9, 0xca, 0xc2, 0xfc, 0x63, 0x25, 0x51,
}

// p256PublicLen is the length of an uncompressed P-256 point encoding:
// 0x04 || X (32) || Y (32).
const p256PublicLen = 65

// KeyPair is a P-256 ECDH key pair used in SSP public key exchange. Only
// the scalar is fixed at generation: the crypto/ecdh key, and with it the
// base-point multiplication that yields the public key, is built on first
// use, because many simulated controllers never exchange a key.
type KeyPair struct {
	scalar [32]byte
	once   sync.Once
	priv   *ecdh.PrivateKey
	pub    [p256PublicLen]byte // set together with priv
}

// GenerateKeyPair creates a P-256 key pair from the given entropy source.
// Unlike crypto/ecdh.GenerateKey — which intentionally consumes a
// nondeterministic number of reader bytes — this derivation is a pure
// function of the reader's output (rejection sampling over candidate
// scalars), which the simulator needs for reproducible runs.
func GenerateKeyPair(rand io.Reader) (*KeyPair, error) {
	kp := new(KeyPair)
	for attempt := 0; attempt < 64; attempt++ {
		if _, err := io.ReadFull(rand, kp.scalar[:]); err != nil {
			return nil, fmt.Errorf("btcrypto: reading key entropy: %w", err)
		}
		// ecdh.NewPrivateKey's rule: the scalar must lie in [1, n-1].
		if kp.scalar == ([32]byte{}) || bytes.Compare(kp.scalar[:], p256Order[:]) >= 0 {
			continue // out of range for the curve order; draw again
		}
		return kp, nil
	}
	return nil, fmt.Errorf("btcrypto: no valid P-256 scalar after 64 draws")
}

// private returns the crypto/ecdh key, deriving it (and the public key
// encoding) on first use.
func (kp *KeyPair) private() *ecdh.PrivateKey {
	kp.once.Do(func() {
		priv, err := ecdh.P256().NewPrivateKey(kp.scalar[:])
		if err != nil {
			panic("btcrypto: range-checked P-256 scalar rejected: " + err.Error())
		}
		kp.priv = priv
		copy(kp.pub[:], priv.PublicKey().Bytes())
	})
	return kp.priv
}

// PublicX returns the 32-byte X coordinate of the public key, the value
// exchanged (and committed to) during SSP.
func (kp *KeyPair) PublicX() [32]byte {
	kp.private()
	var x [32]byte
	copy(x[:], kp.pub[1:33])
	return x
}

// PublicBytes returns a copy of the full uncompressed public key encoding
// sent in the SSP public key exchange.
func (kp *KeyPair) PublicBytes() []byte {
	kp.private()
	return append([]byte(nil), kp.pub[:]...)
}

// DHKey computes the shared secret with a peer's uncompressed public key
// encoding. The returned 32-byte value is the W input of f2/f3.
func (kp *KeyPair) DHKey(peerPublic []byte) ([]byte, error) {
	pub, err := parsePeer(peerPublic)
	if err != nil {
		return nil, err
	}
	return kp.ecdh(pub)
}

func parsePeer(peerPublic []byte) (*ecdh.PublicKey, error) {
	pub, err := ecdh.P256().NewPublicKey(peerPublic)
	if err != nil {
		return nil, fmt.Errorf("btcrypto: invalid peer public key: %w", err)
	}
	return pub, nil
}

func (kp *KeyPair) ecdh(pub *ecdh.PublicKey) ([]byte, error) {
	secret, err := kp.private().ECDH(pub)
	if err != nil {
		return nil, fmt.Errorf("btcrypto: ECDH: %w", err)
	}
	return secret, nil
}

// DHMemo remembers the P-256 shared secrets computed in one simulated
// world. ECDH is symmetric (a·B = b·A), so once one side of a pairing
// has computed the secret for the unordered pair of public keys {A, B},
// the other side's scalar multiplication could only repeat it; the memo
// hands it over instead. It lives exactly as long as its world: a memo
// shared between worlds, or across runs, would time a different program.
// The zero value is ready to use. A DHMemo is not safe for concurrent
// use, like the single-threaded world that owns it.
type DHMemo struct {
	secrets map[dhPair][32]byte
}

// Len returns the number of shared secrets the memo holds.
func (m *DHMemo) Len() int { return len(m.secrets) }

// dhPair is an unordered pair of public key encodings, the smaller first.
type dhPair [2 * p256PublicLen]byte

// DHKey returns kp.DHKey(peerPublic). The peer key is validated on every
// call, before the lookup, exactly as kp.DHKey validates it; only a
// successful ECDH is remembered, and every call returns a fresh slice.
func (m *DHMemo) DHKey(kp *KeyPair, peerPublic []byte) ([]byte, error) {
	pub, err := parsePeer(peerPublic)
	if err != nil {
		return nil, err
	}
	kp.private()
	// A valid P-256 key is exactly p256PublicLen bytes (uncompressed).
	var key dhPair
	lo, hi := kp.pub[:], peerPublic
	if bytes.Compare(lo, hi) > 0 {
		lo, hi = hi, lo
	}
	copy(key[:], lo)
	copy(key[p256PublicLen:], hi)
	if w, ok := m.secrets[key]; ok {
		return append([]byte(nil), w[:]...), nil
	}
	secret, err := kp.ecdh(pub)
	if err != nil {
		return nil, err
	}
	if m.secrets == nil {
		m.secrets = make(map[dhPair][32]byte)
	}
	m.secrets[key] = [32]byte(secret)
	return secret, nil
}
