package ooo

import (
	"testing"

	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
	"cryptoarch/internal/kernels"
)

// switchingStream interleaves two programs' committed-path streams in
// bursts, so the same PCs arrive with different instructions while earlier
// ones are still in flight, and tallies what it delivered.
type switchingStream struct {
	srcs  [2]MachineStream
	cur   int
	left  int
	burst int
	done  [2]bool

	classes                 [isa.NumClasses]uint64
	loads, stores, branches uint64
	sboxes                  uint64
}

func (s *switchingStream) Next() (*emu.Rec, bool) {
	for !(s.done[0] && s.done[1]) {
		if s.left == 0 || s.done[s.cur] {
			s.cur, s.left = 1-s.cur, s.burst
			if s.done[s.cur] {
				continue
			}
		}
		r, ok := s.srcs[s.cur].Next()
		if !ok {
			s.done[s.cur] = true
			continue
		}
		s.left--
		p := isa.P(r.Inst.Op)
		s.classes[r.Inst.Class]++
		switch {
		case r.Inst.Op == isa.OpSBOX:
			s.sboxes++
			if r.Inst.Aliased {
				s.loads++
			}
		case p.Load:
			s.loads++
		case p.Store:
			s.stores++
		}
		if p.Branch {
			s.branches++
		}
		return r, true
	}
	return nil, false
}

// TestDecodeTableProgramSwitch pins the decode table's guard: a stream
// that switches programs mid-run gets each dynamic instruction timed with
// its own instruction's decode, so the engine's per-class, load, store,
// branch and SBOX counts equal what the stream delivered.
func TestDecodeTableProgramSwitch(t *testing.T) {
	run := func(name string, feat isa.Feature) MachineStream {
		k, err := kernels.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		m, _, err := kernels.NewRun(k, feat, make([]byte, k.KeyBytes), make([]byte, 16), make([]byte, 512))
		if err != nil {
			t.Fatal(err)
		}
		return MachineStream{M: m}
	}
	for _, cfg := range []Config{FourWide, EightWidePlus, Dataflow} {
		src := &switchingStream{srcs: [2]MachineStream{run("blowfish", isa.FeatOpt), run("rc4", isa.FeatRot)}, burst: 37}
		st, err := NewEngine(cfg, src).Run()
		if err != nil {
			t.Fatal(err)
		}
		if st.ClassCounts != src.classes || st.Loads != src.loads || st.Stores != src.stores ||
			st.Branches != src.branches || st.SboxAccesses != src.sboxes {
			t.Fatalf("%s: engine counted classes %v loads %d stores %d branches %d sbox %d; stream delivered %v / %d / %d / %d / %d",
				cfg.Name, st.ClassCounts, st.Loads, st.Stores, st.Branches, st.SboxAccesses,
				src.classes, src.loads, src.stores, src.branches, src.sboxes)
		}
	}
}
