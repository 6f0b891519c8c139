package wordsum

import (
	"encoding/binary"
	"testing"
)

// TestBytesSingleBitFlips pins certain detection of single-bit errors at
// every length from 0 to 40 bytes: whole blocks, leftover words and a
// zero-padded byte tail alike.
func TestBytesSingleBitFlips(t *testing.T) {
	for n := 0; n <= 40; n++ {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i*37 + 11)
		}
		sum := Bytes(p)
		for i := 0; i < n*8; i++ {
			p[i/8] ^= 1 << uint(i%8)
			if Bytes(p) == sum {
				t.Fatalf("%d bytes: flipping bit %d left the sum unchanged", n, i)
			}
			p[i/8] ^= 1 << uint(i%8)
		}
	}
}

// TestBytesLengthMixed pins that zero padding is not mistaken for data:
// appending zero bytes changes the sum.
func TestBytesLengthMixed(t *testing.T) {
	p := []byte("ab")
	for n := 0; n < 9; n++ {
		if Bytes(p) == Bytes(append(p[:len(p):len(p)], make([]byte, n+1)...)) {
			t.Fatalf("appending %d zero bytes left the sum unchanged", n+1)
		}
	}
}

// TestWordStreamMatchesBytes pins the contract the trace checksum relies
// on: Block and Word over a word sequence give the same sum as Bytes over
// its little-endian encoding.
func TestWordStreamMatchesBytes(t *testing.T) {
	for nw := 0; nw <= 9; nw++ {
		words := make([]uint64, nw)
		p := make([]byte, 8*nw)
		for i := range words {
			words[i] = uint64(i+1) * 0x0123456789abcdef
			binary.LittleEndian.PutUint64(p[8*i:], words[i])
		}
		s := New()
		i := 0
		for ; i+4 <= nw; i += 4 {
			s = s.Block(words[i], words[i+1], words[i+2], words[i+3])
		}
		for ; i < nw; i++ {
			s = s.Word(i, words[i])
		}
		if got, want := s.Sum(uint64(len(p))), Bytes(p); got != want {
			t.Fatalf("%d words: word-stream sum %#x, Bytes %#x", nw, got, want)
		}
	}
}
