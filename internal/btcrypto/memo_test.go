package btcrypto

import (
	"bytes"
	"crypto/ecdh"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"testing"
)

// The SSP fast paths below are pinned byte for byte against the plain
// library constructions they replace.

func TestHMAC128MatchesCryptoHMAC(t *testing.T) {
	r := testRand(11)
	key := make([]byte, 100)
	msg := make([]byte, 200)
	r.Read(key)
	r.Read(msg)
	for kl := 0; kl <= 100; kl++ {
		for ml := 0; ml <= 200; ml++ {
			mac := hmac.New(sha256.New, key[:kl])
			mac.Write(msg[:ml])
			want := mac.Sum(nil)[:16]
			if got := hmac128(key[:kl], msg[:ml]); !bytes.Equal(got[:], want) {
				t.Fatalf("key len %d, msg len %d: hmac128 = %x, crypto/hmac = %x", kl, ml, got, want)
			}
		}
	}
}

func TestGMatchesSHA256(t *testing.T) {
	r := testRand(12)
	for i := 0; i < 1000; i++ {
		var u, v [32]byte
		var x, y [16]byte
		r.Read(u[:])
		r.Read(v[:])
		r.Read(x[:])
		r.Read(y[:])
		h := sha256.New()
		h.Write(u[:])
		h.Write(v[:])
		h.Write(x[:])
		h.Write(y[:])
		want := binary.BigEndian.Uint32(h.Sum(nil)[28:32])
		if got := G(u, v, x, y); got != want {
			t.Fatalf("draw %d: G = %d, sha256 reference = %d", i, got, want)
		}
	}
}

// recordingReader logs every byte handed out, so two key derivations
// can be compared on what they consumed as well as what they produced.
type recordingReader struct {
	r   io.Reader
	log []byte
}

func (rr *recordingReader) Read(p []byte) (int, error) {
	n, err := rr.r.Read(p)
	rr.log = append(rr.log, p[:n]...)
	return n, err
}

// generateViaECDH is the derivation GenerateKeyPair replaces: let
// ecdh.NewPrivateKey judge each 32-byte candidate.
func generateViaECDH(rand io.Reader) ([]byte, error) {
	for attempt := 0; attempt < 64; attempt++ {
		var scalar [32]byte
		if _, err := io.ReadFull(rand, scalar[:]); err != nil {
			return nil, err
		}
		priv, err := ecdh.P256().NewPrivateKey(scalar[:])
		if err != nil {
			continue
		}
		return priv.PublicKey().Bytes(), nil
	}
	return nil, errors.New("no valid scalar")
}

func scalarBytes(v *big.Int) []byte {
	var b [32]byte
	return v.FillBytes(b[:])
}

func TestGenerateKeyPairMatchesECDHPath(t *testing.T) {
	n := new(big.Int).SetBytes(p256Order[:])
	one := big.NewInt(1)
	boundary := map[string][]byte{
		"0":       scalarBytes(new(big.Int)),
		"1":       scalarBytes(one),
		"n-1":     scalarBytes(new(big.Int).Sub(n, one)),
		"n":       scalarBytes(n),
		"n+1":     scalarBytes(new(big.Int).Add(n, one)),
		"2^256-1": bytes.Repeat([]byte{0xff}, 32),
	}
	valid := scalarBytes(big.NewInt(0x1234567))
	var streams []struct {
		name string
		data []byte
	}
	add := func(name string, parts ...[]byte) {
		streams = append(streams, struct {
			name string
			data []byte
		}{name, bytes.Join(parts, nil)})
	}
	for name, b := range boundary {
		add(name+" then valid", b, valid)
		add(name+" then n", b, boundary["n"], valid)
		add(name+" alone", b) // a rejection runs out of entropy
	}
	add("64 rejections", bytes.Repeat(boundary["0"], 64), valid)
	add("63 rejections", bytes.Repeat(boundary["2^256-1"], 63), valid)
	add("empty")
	add("short", valid[:20])
	for seed := int64(0); seed < 20; seed++ {
		b := make([]byte, 64)
		testRand(seed).Read(b)
		add(fmt.Sprintf("random seed %d", seed), b)
	}

	for _, s := range streams {
		refRec := &recordingReader{r: bytes.NewReader(s.data)}
		want, wantErr := generateViaECDH(refRec)
		rec := &recordingReader{r: bytes.NewReader(s.data)}
		kp, err := GenerateKeyPair(rec)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s: err = %v, ecdh path err = %v", s.name, err, wantErr)
		}
		if !bytes.Equal(rec.log, refRec.log) {
			t.Fatalf("%s: consumed %d bytes, ecdh path consumed %d", s.name, len(rec.log), len(refRec.log))
		}
		if err == nil && !bytes.Equal(kp.PublicBytes(), want) {
			t.Fatalf("%s: public key %x, ecdh path %x", s.name, kp.PublicBytes(), want)
		}
	}
}

func TestDHMemoMatchesDirectECDH(t *testing.T) {
	var m DHMemo
	for i := int64(0); i < 40; i++ {
		a, _ := GenerateKeyPair(testRand(1000 + 2*i))
		b, _ := GenerateKeyPair(testRand(1001 + 2*i))
		direct, err := a.DHKey(b.PublicBytes())
		if err != nil {
			t.Fatal(err)
		}
		before := m.Len()
		first, err := m.DHKey(a, b.PublicBytes())
		if err != nil {
			t.Fatal(err)
		}
		second, err := m.DHKey(b, a.PublicBytes())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, direct) || !bytes.Equal(second, direct) {
			t.Fatalf("pair %d: memo %x / %x, direct %x", i, first, second, direct)
		}
		if m.Len() != before+1 {
			t.Fatalf("pair %d: memo grew by %d, want one entry per unordered pair", i, m.Len()-before)
		}

		// Own key as the peer key: the OOB commitment path's pair.
		self, err := m.DHKey(a, a.PublicBytes())
		if err != nil {
			t.Fatal(err)
		}
		selfDirect, _ := a.DHKey(a.PublicBytes())
		if !bytes.Equal(self, selfDirect) {
			t.Fatalf("pair %d: memo a·A %x, direct %x", i, self, selfDirect)
		}
	}
}

func TestDHMemoRejectsAndSkipsBadPeerKeys(t *testing.T) {
	var m DHMemo
	a, _ := GenerateKeyPair(testRand(3))
	offCurve := make([]byte, 65)
	offCurve[0] = 4
	compressed := append([]byte{0x02}, a.PublicBytes()[1:33]...)
	for _, bad := range [][]byte{nil, {1, 2, 3}, offCurve, compressed, a.PublicBytes()[:64]} {
		if _, err := m.DHKey(a, bad); err == nil {
			t.Fatalf("peer key %x must be rejected", bad)
		}
		if m.Len() != 0 {
			t.Fatalf("a rejected peer key left %d memo entries", m.Len())
		}
	}
	// A peer key that fails only after the memo once held its pair must
	// still be validated: corrupt a key the memo has seen.
	b, _ := GenerateKeyPair(testRand(4))
	if _, err := m.DHKey(a, b.PublicBytes()); err != nil {
		t.Fatal(err)
	}
	corrupt := b.PublicBytes()
	corrupt[64] ^= 1
	if _, err := m.DHKey(a, corrupt); err == nil {
		t.Fatal("an off-curve variant of a remembered key must be rejected")
	}
	if m.Len() != 1 {
		t.Fatalf("memo holds %d entries, want 1", m.Len())
	}
}

func TestDHMemoReturnsFreshCopies(t *testing.T) {
	var m DHMemo
	a, _ := GenerateKeyPair(testRand(5))
	b, _ := GenerateKeyPair(testRand(6))
	want, _ := a.DHKey(b.PublicBytes())
	miss, _ := m.DHKey(a, b.PublicBytes())
	for i := range miss {
		miss[i] ^= 0xff
	}
	hit, _ := m.DHKey(b, a.PublicBytes())
	if !bytes.Equal(hit, want) {
		t.Fatalf("mutating the miss result poisoned the memo: %x, want %x", hit, want)
	}
	for i := range hit {
		hit[i] = 0
	}
	again, _ := m.DHKey(a, b.PublicBytes())
	if !bytes.Equal(again, want) {
		t.Fatalf("mutating a hit result poisoned the memo: %x, want %x", again, want)
	}
}

func TestPublicBytesIsACopy(t *testing.T) {
	kp, _ := GenerateKeyPair(testRand(7))
	pub := kp.PublicBytes()
	want := append([]byte(nil), pub...)
	pub[1] ^= 0xff
	if !bytes.Equal(kp.PublicBytes(), want) {
		t.Fatal("mutating PublicBytes' result changed the key pair")
	}
	if x := kp.PublicX(); !bytes.Equal(x[:], want[1:33]) {
		t.Fatal("mutating PublicBytes' result changed PublicX")
	}
}

func BenchmarkDHKeyMemoMiss(b *testing.B) {
	a, _ := GenerateKeyPair(testRand(1))
	peer, _ := GenerateKeyPair(testRand(2))
	pub := peer.PublicBytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var m DHMemo
		if _, err := m.DHKey(a, pub); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDHKeyMemoHit(b *testing.B) {
	a, _ := GenerateKeyPair(testRand(1))
	peer, _ := GenerateKeyPair(testRand(2))
	pub := peer.PublicBytes()
	var m DHMemo
	if _, err := m.DHKey(a, pub); err != nil {
		b.Fatal(err)
	}
	apub := a.PublicBytes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.DHKey(peer, apub); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF1(b *testing.B) {
	var u, v [32]byte
	var x [16]byte
	u[0], v[0] = 1, 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x[0] = byte(i)
		_ = F1(u, v, x, 0x81)
	}
}
