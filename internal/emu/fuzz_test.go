package emu

import (
	"testing"

	"cryptoarch/internal/check"
	"cryptoarch/internal/isa"
)

// fuzzProg is a five-instruction program covering every record shape the
// trace decoder distinguishes: arithmetic, load, store, branch, halt.
func fuzzProg() *isa.Program {
	b := isa.NewBuilder("fuzzprog", isa.FeatRot)
	b.ADDQI(isa.RA0, 1, isa.RA0) // 0: arith
	b.LDQ(isa.RA1, 0, isa.RA3)   // 1: load
	b.STQ(isa.RA1, 0, isa.RA3)   // 2: store
	b.Label("loop")
	b.BNE(isa.RA0, "loop") // 3: branch
	b.HALT()               // 4
	return b.Build()
}

// FuzzTraceDecode throws arbitrary packed records at Trace.Validate and
// the replay decoder: Validate must reject every structurally broken
// record, and every record it accepts must replay without panicking and
// with fields consistent with the static program.
func FuzzTraceDecode(f *testing.F) {
	prog := fuzzProg()
	f.Add(uint64(0x20000), uint32(1), uint32(0)) // well-formed load
	f.Add(uint64(0), uint32(3), uint32(7))       // taken branch
	f.Add(uint64(5), uint32(99), uint32(1))      // PC out of range
	f.Add(uint64(1), uint32(0), uint32(0))       // address on an arith op
	f.Fuzz(func(t *testing.T, addr uint64, idx uint32, br uint32) {
		tr := &Trace{Prog: prog, Recs: []TraceRec{{Addr: addr, Idx: idx, Br: br}}}
		err := tr.Validate()
		if int(idx) >= len(prog.Code) {
			if err == nil {
				t.Fatalf("Validate accepted out-of-range PC %d", idx)
			}
			if _, ok := check.AsViolation(err); !ok {
				t.Fatalf("Validate error %v is not a check.Violation", err)
			}
			return
		}
		if err != nil {
			return // structurally rejected; nothing to replay
		}
		s := tr.Stream()
		r, ok := s.Next()
		if !ok {
			t.Fatal("validated stream delivered no record")
		}
		if r.Idx != int(idx) || r.Inst != &prog.Code[idx] {
			t.Fatalf("decoded Idx/Inst mismatch: %d vs %d", r.Idx, idx)
		}
		p := isa.P(r.Inst.Op)
		if p.Mem && (r.Addr != addr || r.Size != p.Size) {
			t.Fatalf("memory record decoded addr=%#x size=%d, want %#x/%d", r.Addr, r.Size, addr, p.Size)
		}
		if !p.Mem && r.Addr != 0 {
			t.Fatalf("non-memory record decoded addr %#x", r.Addr)
		}
		if p.Branch && (r.Taken != (br&1 != 0) || r.Targ != int(br>>1)) {
			t.Fatalf("branch record decoded taken=%v targ=%d from br=%#x", r.Taken, r.Targ, br)
		}
		if _, ok := s.Next(); ok {
			t.Fatal("stream delivered a second record")
		}
	})
}

// FuzzPackRoundTrip drives live records through pack and back through the
// replay decoder, asserting the dynamic facts survive unchanged and the
// packed form passes Validate.
func FuzzPackRoundTrip(f *testing.F) {
	prog := fuzzProg()
	f.Add(1, uint64(0x20010), true, 2)
	f.Add(3, uint64(0), false, 0)
	f.Add(0, uint64(0), false, 0)
	f.Fuzz(func(t *testing.T, idx int, addr uint64, taken bool, targ int) {
		n := len(prog.Code)
		if idx < 0 || idx >= n {
			return
		}
		inst := &prog.Code[idx]
		p := isa.P(inst.Op)
		r := Rec{Idx: idx, Inst: inst}
		if p.Mem {
			r.Addr, r.Size = addr, p.Size
		}
		if p.Branch {
			if targ < 0 || targ >= n {
				return
			}
			r.Taken, r.Targ = taken, targ
		}
		pr := pack(&r)
		tr := &Trace{Prog: prog, Recs: []TraceRec{pr}}
		if err := tr.Validate(); err != nil {
			t.Fatalf("packed live record fails Validate: %v", err)
		}
		got, ok := tr.Stream().Next()
		if !ok {
			t.Fatal("round-trip stream empty")
		}
		if got.Idx != r.Idx || got.Inst != r.Inst || got.Addr != r.Addr ||
			got.Size != r.Size || got.Taken != r.Taken || got.Targ != r.Targ {
			t.Fatalf("round trip changed the record: %+v vs %+v", got, r)
		}
	})
}
