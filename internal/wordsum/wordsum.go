// Package wordsum is the repository's integrity checksum: a 64-bit hash
// over a sequence of little-endian 64-bit words, shared by the packed
// trace records (emu.ChecksumRecs) and the persistent store's payloads, so
// one sum serves replay integrity in memory and file integrity on disk.
//
// Word i feeds lane i mod 4. A lane step is h' = rotl((h ^ w) * k, 31):
// for a fixed h it is a bijection of w, and for a fixed w a bijection of
// h, so a lane's final value changes whenever exactly one of its words
// does. The finalizer folds the lanes into the byte length, one bijective
// step per lane, then avalanches. Hence any corruption confined to one
// 64-bit word (every single-bit flip, any change of one trace record's
// address alone or of its index/branch word alone) is detected with
// certainty; corruptions spanning several words are detected with
// probability about 1 - 2^-64. The rotate keeps flips of a word's top bit
// from cancelling pairwise, which a bare multiply would allow. The four
// lanes are independent multiply chains, so hashing runs at multiply
// throughput instead of one dependent multiply per byte.
//
// This is an integrity check against accidental corruption, not a
// cryptographic MAC.
package wordsum

import (
	"encoding/binary"
	"math/bits"
)

// Hash constants: an odd lane multiplier, distinct lane seeds, and the
// murmur3 fmix64 multipliers of the finalizer's avalanche.
const (
	mul   = 0x9e3779b185ebca87
	seed0 = 0x60ea27eeadc0b5d6
	seed1 = 0xc2b2ae3d27d4eb4f
	seed2 = 0x165667b19e3779f9
	seed3 = 0x27d4eb2f165667c5
	lenK  = 0x85ebca77c2b2ae63
	fmixA = 0xff51afd7ed558ccd
	fmixB = 0xc4ceb9fe1a85ec53
)

// State is a running hash: four lanes. The zero value is not a valid
// state; start from New.
type State struct{ a, b, c, d uint64 }

// New returns the initial state.
func New() State { return State{seed0, seed1, seed2, seed3} }

func step(h, w uint64) uint64 { return bits.RotateLeft64((h^w)*mul, 31) }

// Block absorbs four consecutive words, one per lane. The sequence must be
// aligned: the first word of a Block is a word whose index is a multiple
// of four.
func (s State) Block(w0, w1, w2, w3 uint64) State {
	return State{step(s.a, w0), step(s.b, w1), step(s.c, w2), step(s.d, w3)}
}

// Word absorbs the word at index i. Callers use it for the words after
// the last whole Block; i may be any word index.
func (s State) Word(i int, w uint64) State {
	switch i & 3 {
	case 0:
		s.a = step(s.a, w)
	case 1:
		s.b = step(s.b, w)
	case 2:
		s.c = step(s.c, w)
	default:
		s.d = step(s.d, w)
	}
	return s
}

// Sum finalizes the hash of a message of n bytes.
func (s State) Sum(n uint64) uint64 {
	h := n * lenK
	h = step(h, s.a)
	h = step(h, s.b)
	h = step(h, s.c)
	h = step(h, s.d)
	h ^= h >> 33
	h *= fmixA
	h ^= h >> 33
	h *= fmixB
	h ^= h >> 33
	return h
}

// Bytes hashes p as little-endian 64-bit words. A tail of fewer than 8
// bytes is zero-padded into one final word; the byte length in the
// finalizer tells the padding apart from real zero bytes.
func Bytes(p []byte) uint64 {
	n := uint64(len(p))
	s := New()
	for len(p) >= 32 {
		s = s.Block(binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:]),
			binary.LittleEndian.Uint64(p[16:]), binary.LittleEndian.Uint64(p[24:]))
		p = p[32:]
	}
	i := 0
	for ; len(p) >= 8; i++ {
		s = s.Word(i, binary.LittleEndian.Uint64(p))
		p = p[8:]
	}
	if len(p) > 0 {
		var t uint64
		for j := len(p) - 1; j >= 0; j-- {
			t = t<<8 | uint64(p[j])
		}
		s = s.Word(i, t)
	}
	return s.Sum(n)
}
