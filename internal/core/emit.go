package core

import (
	"fmt"

	"tnsr/internal/backend"
	"tnsr/internal/codefile"
	"tnsr/internal/risc"
)

// pmapPoint records a PMap entry to be resolved at layout.
type pmapPoint struct {
	tnsAddr  uint16
	lbl      backend.Label
	regExact bool
	rp       int8 // static RP at a register-exact point (-1 elsewhere)
}

// fn is the emission buffer, the one place a translation's output lives:
// the translator appends to ins, the scheduler reorders it in place, and
// finalizeSection hands it to Backend.Encode as it stands.
type fn struct {
	ins      []backend.Inst
	labelPos []int32 // label -> instruction index; -1 unbound
	points   []pmapPoint
	// procEntry and blockLbl map PEP indexes and TNS block-leader addresses
	// to labels, holding only the procedures and blocks this buffer binds
	// or refers to. A label for a procedure or block outside a fragment's
	// range stays unbound there; the parallel merge resolves it.
	procEntry map[int]backend.Label
	blockLbl  map[uint16]backend.Label
	// stats is the translation's one statistics record: the translator
	// and scheduler count into it, and finalizeSection completes it.
	stats  codefile.AccelStats
	curTNS uint16
	// pendingExact marks the next emitted instruction as an exact-point
	// boundary (scheduling barrier).
	pendingExact bool
	// why records the static escape reason (obs.EscapeReason code) for each
	// TNS address a fallback was emitted at; it becomes the acceleration
	// section's FallbackWhy table. Fragment addresses are disjoint, so the
	// parallel merge is a plain union.
	why map[uint16]uint8
}

// newFn makes an emission buffer with room for insCap instructions.
func newFn(insCap int) *fn {
	return &fn{
		ins:       make([]backend.Inst, 0, insCap),
		procEntry: map[int]backend.Label{},
		blockLbl:  map[uint16]backend.Label{},
		why:       map[uint16]uint8{},
	}
}

func (f *fn) newLabel() backend.Label {
	f.labelPos = append(f.labelPos, -1)
	return backend.Label(len(f.labelPos) - 1)
}

func (f *fn) bind(l backend.Label) {
	if f.labelPos[l] != -1 {
		panic("core: label bound twice")
	}
	f.labelPos[l] = int32(len(f.ins))
}

// bound reports whether l has been bound.
func (f *fn) bound(l backend.Label) bool { return f.labelPos[l] != -1 }

func (f *fn) add(in backend.Inst) {
	in.TNSAddr = f.curTNS
	if f.pendingExact {
		in.IsExact = true
		f.pendingExact = false
	}
	f.ins = append(f.ins, in)
	if !in.IsWord {
		f.stats.RISCInstrs++
	}
}

// plain appends an instruction that refers to no label.
func (f *fn) plain(in backend.Inst) {
	in.Lbl, in.JLbl = backend.NoLabel, backend.NoLabel
	f.add(in)
}

// --- emission helpers -----------------------------------------------------

func (f *fn) alu(op risc.Op, rd, rs, rt uint8) {
	f.plain(backend.Inst{Op: op, Rd: rd, Rs: rs, Rt: rt})
}

func (f *fn) imm(op risc.Op, rt, rs uint8, v int32) {
	f.plain(backend.Inst{Op: op, Rt: rt, Rs: rs, Imm: v})
}

func (f *fn) shift(op risc.Op, rd, rt, sh uint8) {
	f.plain(backend.Inst{Op: op, Rd: rd, Rt: rt, Shamt: sh})
}

func (f *fn) mem(op risc.Op, rt, base uint8, off int32) {
	f.plain(backend.Inst{Op: op, Rt: rt, Rs: base, Imm: off})
}

func (f *fn) br(op risc.Op, rs, rt uint8, l backend.Label) {
	f.add(backend.Inst{Op: op, Rs: rs, Rt: rt, Lbl: l, JLbl: backend.NoLabel})
}

func (f *fn) jAbs(op risc.Op, target uint32) {
	f.plain(backend.Inst{Op: op, JTarget: target})
}

func (f *fn) jLocal(op risc.Op, l backend.Label) {
	f.add(backend.Inst{Op: op, Lbl: backend.NoLabel, JLbl: l})
}

func (f *fn) jr(rs uint8) {
	f.plain(backend.Inst{Op: risc.JR, Rs: rs})
}

func (f *fn) brk(code uint32) {
	f.plain(backend.Inst{Op: risc.BREAK, Code: code})
}

func (f *fn) sys(code uint32) {
	f.plain(backend.Inst{Op: risc.SYSCALL, Code: code})
}

func (f *fn) nop() {
	f.plain(backend.Inst{Op: risc.SLL}) // sll $0,$0,0
}

func (f *fn) word(v uint32) {
	f.plain(backend.Inst{IsWord: true, Imm: int32(v)})
}

func (f *fn) wordLabel(l backend.Label) {
	f.add(backend.Inst{IsWord: true, Lbl: backend.NoLabel, JLbl: l})
}

// laCodeWindow loads into reg the data-space address at which the code word
// labelled l can be read (CodeWindow mapping), resolved at layout.
func (f *fn) laCodeWindow(reg uint8, l backend.Label) {
	f.plain(backend.Inst{Op: risc.LUI, Rt: reg, LALbl: l, HasLA: true, LAHi: true})
	f.plain(backend.Inst{Op: risc.ORI, Rt: reg, Rs: reg, LALbl: l, HasLA: true})
}

// li loads a 32-bit constant into reg (1-2 instructions).
func (f *fn) li(reg uint8, v int32) {
	switch {
	case v >= -32768 && v <= 32767:
		f.imm(risc.ADDIU, reg, risc.RegZero, v)
	case v >= 0 && v <= 0xFFFF:
		f.imm(risc.ORI, reg, risc.RegZero, v)
	default:
		f.imm(risc.LUI, reg, 0, int32(uint32(v)>>16))
		if v&0xFFFF != 0 {
			f.imm(risc.ORI, reg, reg, v&0xFFFF)
		}
	}
}

// move emits a register copy.
func (f *fn) move(rd, rs uint8) {
	if rd != rs {
		f.alu(risc.ADDU, rd, rs, risc.RegZero)
	}
}

// pmapAdd records a PMap point at the current position; rp is the static
// RP translated code assumes at a register-exact point.
func (f *fn) pmapAdd(tnsAddr uint16, regExact bool, rp int8) {
	l := f.newLabel()
	f.bind(l)
	f.points = append(f.points, pmapPoint{tnsAddr: tnsAddr, lbl: l, regExact: regExact, rp: rp})
	f.pendingExact = true
}

func (f *fn) String() string {
	return fmt.Sprintf("fn(%d instrs, %d labels)", len(f.ins), len(f.labelPos))
}
