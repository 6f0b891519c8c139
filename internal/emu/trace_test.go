package emu_test

import (
	"testing"

	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
)

// newPair builds two identical machines over a real kernel so one can be
// recorded and the other stepped live for comparison.
func newPair(t testing.TB, name string, feat isa.Feature, session int) (*emu.Machine, *emu.Machine) {
	t.Helper()
	k, err := kernels.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	key := make([]byte, 16)
	iv := make([]byte, 8)
	pt := make([]byte, session)
	for i := range pt {
		pt[i] = byte(i*7 + 1)
	}
	a, _, err := kernels.NewRun(k, feat, key, iv, pt)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := kernels.NewRun(k, feat, key, iv, pt)
	if err != nil {
		t.Fatal(err)
	}
	return a, b
}

// sameRec compares every Rec field the timing model consumes. Val is
// deliberately excluded: traces do not record result values (only the
// value-prediction experiments need them, and those run live).
// The two machines hold independently built (identical) programs, so Inst
// is compared by value, not by pointer.
func sameRec(a, b *emu.Rec) bool {
	return a.Idx == b.Idx && *a.Inst == *b.Inst && a.Addr == b.Addr &&
		a.Size == b.Size && a.Taken == b.Taken && a.Targ == b.Targ
}

// TestReplayMatchesLive records a trace and checks the replayed record
// sequence is field-identical to stepping a fresh machine.
func TestReplayMatchesLive(t *testing.T) {
	for _, name := range []string{"blowfish", "rc4", "idea"} {
		t.Run(name, func(t *testing.T) {
			rm, lm := newPair(t, name, isa.FeatRot, 256)
			tr, done := emu.Record(rm, 0, nil)
			if !done {
				t.Fatal("unbounded Record reported an incomplete run")
			}
			if len(tr.Recs) == 0 {
				t.Fatal("empty trace")
			}
			if tr.Bytes() != emu.TraceRecBytes*len(tr.Recs) {
				t.Fatalf("Bytes() = %d, want %d", tr.Bytes(), emu.TraceRecBytes*len(tr.Recs))
			}
			s := tr.Stream()
			if s.InstCount() != len(tr.Recs) {
				t.Fatalf("InstCount = %d, want %d", s.InstCount(), len(tr.Recs))
			}
			n := 0
			for {
				lr := lm.Step()
				rr, ok := s.Next()
				if lr == nil || !ok {
					if lr != nil || ok {
						t.Fatalf("length mismatch at %d: live ended=%v replay ended=%v", n, lr == nil, !ok)
					}
					break
				}
				if !sameRec(lr, rr) {
					t.Fatalf("rec %d mismatch:\nlive   %+v\nreplay %+v", n, *lr, *rr)
				}
				n++
			}
			if n != len(tr.Recs) {
				t.Fatalf("replayed %d recs, trace holds %d", n, len(tr.Recs))
			}
		})
	}
}

// TestPartialRecordResume records only a prefix and checks Resume delivers
// the identical full stream (replayed prefix + live continuation).
func TestPartialRecordResume(t *testing.T) {
	rm, lm := newPair(t, "blowfish", isa.FeatRot, 256)
	const max = 1000
	tr, done := emu.Record(rm, max, nil)
	if done {
		t.Fatal("expected a truncated record for this session length")
	}
	if len(tr.Recs) != max {
		t.Fatalf("prefix length %d, want %d", len(tr.Recs), max)
	}
	s := tr.Resume(rm)
	n := 0
	for {
		lr := lm.Step()
		rr, ok := s.Next()
		if lr == nil || !ok {
			if lr != nil || ok {
				t.Fatalf("length mismatch at %d", n)
			}
			break
		}
		if !sameRec(lr, rr) {
			t.Fatalf("rec %d mismatch:\nlive   %+v\nresume %+v", n, *lr, *rr)
		}
		n++
	}
	if n <= max {
		t.Fatalf("resume delivered only %d recs, expected more than the %d-rec prefix", n, max)
	}
}

// TestRecordReusesBuffer pins the record-into-reusable-buffer contract:
// a buffer with enough capacity is not reallocated.
func TestRecordReusesBuffer(t *testing.T) {
	rm, _ := newPair(t, "rc4", isa.FeatNoRot, 64)
	tr, _ := emu.Record(rm, 0, nil)
	buf := tr.Recs[:0]
	rm2, _ := newPair(t, "rc4", isa.FeatNoRot, 64)
	tr2, done := emu.Record(rm2, 0, buf)
	if !done {
		t.Fatal("second record incomplete")
	}
	if &tr2.Recs[0] != &tr.Recs[0] {
		t.Fatal("Record reallocated a buffer that had sufficient capacity")
	}
}

// recordedTrace records a real kernel session for the checksum tests.
func recordedTrace(t testing.TB) []emu.TraceRec {
	t.Helper()
	m, _ := newPair(t, "blowfish", isa.FeatRot, 256)
	tr, done := emu.Record(m, 0, nil)
	if !done || len(tr.Recs) < 8 {
		t.Fatalf("recording failed (done=%v, %d records)", done, len(tr.Recs))
	}
	return tr.Recs
}

// flipBit flips bit b (0-127) of a record's two checksummed words: bits
// 0-63 are Addr, bits 64-127 are Idx|Br<<32.
func flipBit(r *emu.TraceRec, b int) {
	if b < 64 {
		r.Addr ^= 1 << uint(b)
		return
	}
	w := (uint64(r.Idx) | uint64(r.Br)<<32) ^ 1<<uint(b-64)
	r.Idx, r.Br = uint32(w), uint32(w>>32)
}

// TestChecksumRecs pins the checksum's sensitivity on a real recorded
// trace. Every one of the 128 single-bit flips of the first, middle and
// last record changes the sum, in an even-length trace and in an
// odd-length one, whose last record is hashed by the tail path. So do a
// swap of two differing records, in different and in the same hash
// lanes, and truncation by one record. Equal traces agree.
func TestChecksumRecs(t *testing.T) {
	all := recordedTrace(t)
	even := all[:len(all)&^1]
	odd := even[:len(even)-1]
	for _, recs := range [][]emu.TraceRec{even, odd} {
		sum := emu.ChecksumRecs(recs)
		cp := append([]emu.TraceRec(nil), recs...)
		if emu.ChecksumRecs(cp) != sum {
			t.Fatal("checksum differs between equal traces")
		}
		for _, i := range []int{0, len(cp) / 2, len(cp) - 1} {
			for b := 0; b < 128; b++ {
				flipBit(&cp[i], b)
				if emu.ChecksumRecs(cp) == sum {
					t.Fatalf("%d records: flipping bit %d of record %d left the checksum unchanged", len(cp), b, i)
				}
				flipBit(&cp[i], b)
			}
		}
		for _, d := range []int{1, 2} { // adjacent records: other lanes; two apart: same lanes
			i := len(cp) / 2
			for cp[i] == cp[i+d] {
				i++
			}
			cp[i], cp[i+d] = cp[i+d], cp[i]
			if emu.ChecksumRecs(cp) == sum {
				t.Fatalf("%d records: swapping records %d and %d left the checksum unchanged", len(cp), i, i+d)
			}
			cp[i], cp[i+d] = cp[i+d], cp[i]
		}
		if emu.ChecksumRecs(cp[:len(cp)-1]) == sum {
			t.Fatalf("%d records: truncation by one record left the checksum unchanged", len(cp))
		}
	}
	if emu.ChecksumRecs(nil) != emu.ChecksumRecs([]emu.TraceRec{}) {
		t.Fatal("empty-trace checksums disagree")
	}
}

// FuzzChecksumDetectsCorruption mutates one record of a prefix of a real
// recorded trace (any change to its address word, its index/branch word,
// or both) and requires the checksum to change.
func FuzzChecksumDetectsCorruption(f *testing.F) {
	all := recordedTrace(f)
	f.Add(uint16(len(all)-1), uint16(0), uint64(1), uint64(0))
	f.Add(uint16(len(all)-2), uint16(len(all)/2), uint64(0), uint64(1)<<63)
	f.Add(uint16(7), uint16(6), uint64(1)<<63, uint64(1)<<32)
	f.Fuzz(func(t *testing.T, n, pos uint16, addrXor, wordXor uint64) {
		if addrXor == 0 && wordXor == 0 {
			return // no mutation
		}
		recs := all[:1+int(n)%len(all)]
		sum := emu.ChecksumRecs(recs)
		cp := append([]emu.TraceRec(nil), recs...)
		r := &cp[int(pos)%len(cp)]
		r.Addr ^= addrXor
		w := (uint64(r.Idx) | uint64(r.Br)<<32) ^ wordXor
		r.Idx, r.Br = uint32(w), uint32(w>>32)
		if emu.ChecksumRecs(cp) == sum {
			t.Fatalf("mutating record %d of %d (addr ^ %#x, word ^ %#x) left the checksum unchanged",
				int(pos)%len(cp), len(cp), addrXor, wordXor)
		}
	})
}
