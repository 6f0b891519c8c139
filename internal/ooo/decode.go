package ooo

import (
	"sync"

	"cryptoarch/internal/core"
	"cryptoarch/internal/emu"
	"cryptoarch/internal/isa"
)

// Static decode. Everything the pipeline needs to know about an
// instruction except its effective address and branch outcome is a
// property of the static instruction, yet a trace replays each PC
// thousands of times. The engine decodes each static instruction once,
// on first fetch, into a table indexed through its PC; fetch, dispatch,
// issue and the tracer read the table instead of re-deriving operand
// lists, FU kinds and latencies per dynamic instruction. ROB entries
// refer to their decode by table index, which keeps them pointer-free.

// static is the decode of one static instruction under this engine's
// configuration (SBOX routing depends on Config.NumSboxCaches).
type static struct {
	inst  *isa.Inst
	srcs  [3]isa.Reg // registers that gate issue; a store keeps only its base Rb
	nsrcs uint8
	dest  isa.Reg // register written, or RZ
	data  isa.Reg // stores: the data register Ra (gates forwarding loads only)
	class isa.Class
	kind  uint8 // FU kind (kindOf)
	lat   uint8 // execution latency of operations that do not access memory

	isLoad, isStore, branch bool
	sbox, sboxToDCache      bool // SBOX; routed through a D-cache port
	sboxSync                bool
}

// decodeTable is the per-engine static decode: statics is append-only, and
// pcStatic maps a PC to 1 + the index of its most recent decode (0 = not
// yet decoded). A stream that switches programs re-decodes a PC whose
// instruction pointer changed into a fresh slot, so in-flight entries keep
// the decode they were fetched with.
type decodeTable struct {
	statics  []static
	pcStatic []int32
}

// decodeTables recycles tables across engines: a replay engine decodes a
// few hundred PCs, and the pooled slices keep that from allocating per run.
var decodeTables = sync.Pool{New: func() any { return new(decodeTable) }}

// getDecodeTable returns an empty table. A recycled table may hold
// decodes made under another configuration, so its PC map is cleared.
func getDecodeTable() *decodeTable {
	t := decodeTables.Get().(*decodeTable)
	t.statics = t.statics[:0]
	clear(t.pcStatic)
	return t
}

// staticOf returns the table index of rec's instruction, decoding it on
// first sight.
func (e *Engine) staticOf(rec *emu.Rec) int32 {
	t := e.dec
	if pc := rec.Idx; uint(pc) < uint(len(t.pcStatic)) {
		if i := t.pcStatic[pc] - 1; i >= 0 && t.statics[i].inst == rec.Inst {
			return i
		}
	}
	return e.decode(rec)
}

// decode appends the decode of rec's instruction and points its PC at it.
func (e *Engine) decode(rec *emu.Rec) int32 {
	in := rec.Inst
	p := isa.P(in.Op)
	s := static{
		inst:     in,
		dest:     in.Dest(),
		class:    in.Class,
		lat:      1,
		isStore:  p.Store,
		isLoad:   p.Load && in.Op != isa.OpSBOX,
		branch:   p.Branch,
		sbox:     in.Op == isa.OpSBOX,
		sboxSync: in.Op == isa.OpSBOXSYNC,
	}
	if s.sbox {
		if in.Aliased {
			// Aliased SBOX behaves as a load with optimized agen.
			s.isLoad = true
			s.sboxToDCache = true
		} else if int(in.Sel1) >= e.cfg.NumSboxCaches {
			s.sboxToDCache = true
		}
	}
	if s.isStore {
		// A store issues (and publishes its address) as soon as the base
		// register is ready; the data value only gates loads that forward
		// from it, so its producer is tracked separately.
		s.data = in.Ra
		if in.Rb != isa.RZ {
			s.srcs[0], s.nsrcs = in.Rb, 1
		}
	} else {
		s.nsrcs = uint8(copy(s.srcs[:], in.Sources(e.srcScratch[:0])))
	}
	switch in.Op {
	case isa.OpMULQ, isa.OpUMULH:
		s.lat = core.LatMul64
	case isa.OpMULL:
		s.lat = core.LatMul32
	case isa.OpMULMOD:
		s.lat = core.LatMulMod
	}
	s.kind = uint8(kindOf(in, s.isLoad, s.isStore, s.sboxToDCache))

	t := e.dec
	t.statics = append(t.statics, s)
	if rec.Idx >= len(t.pcStatic) {
		n := max(rec.Idx+1, 2*len(t.pcStatic))
		t.pcStatic = append(t.pcStatic, make([]int32, n-len(t.pcStatic))...)
	}
	t.pcStatic[rec.Idx] = int32(len(t.statics))
	return int32(len(t.statics) - 1)
}

// kindOf classifies an instruction by the resource pool it issues to.
func kindOf(in *isa.Inst, isLoad, isStore, sboxToDCache bool) int {
	op := in.Op
	switch {
	case op == isa.OpSBOX && !sboxToDCache:
		return kindSbox0 + int(in.Sel1)
	case isLoad || isStore || op == isa.OpSBOX:
		return kindDPort
	case op == isa.OpMULQ || op == isa.OpUMULH:
		return kindMul64
	case op == isa.OpMULL || op == isa.OpMULMOD:
		return kindMul32
	case op == isa.OpROLQ || op == isa.OpRORQ || op == isa.OpROLL || op == isa.OpRORL ||
		op == isa.OpROLXL || op == isa.OpRORXL || op == isa.OpROLXQ || op == isa.OpRORXQ ||
		op == isa.OpXBOX:
		return kindRot
	case op == isa.OpHALT || op == isa.OpNOP || op == isa.OpSBOXSYNC:
		return kindNone
	default:
		return kindIALU
	}
}
