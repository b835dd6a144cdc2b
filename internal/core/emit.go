package core

import (
	"fmt"

	"tnsr/internal/risc"
)

// label identifies a position in the emitted RISC stream, bound during
// translation and resolved at layout time.
type label int32

const noLabel label = -1

// rinst is one emitted RISC instruction (or raw table word) before layout.
type rinst struct {
	op      risc.Op
	rd      uint8
	rs      uint8
	rt      uint8
	shamt   uint8
	imm     int32
	lbl     label  // branch target / data-word label reference
	jTarget uint32 // absolute word index for J/JAL (millicode entries)
	jLbl    label  // J/JAL to a local label (direct PCAL targets)
	code    uint32 // BREAK/SYSCALL code
	isWord  bool   // raw data word: imm literal or (jLbl) code address
	laLbl   label  // LUI/ORI pair loading CodeWindow+4*(CodeBase+pos(laLbl))
	hasLA   bool   // laLbl is valid
	laHi    bool   // this is the LUI half of the pair
	tnsAddr uint16 // originating TNS address (stats, debug listings)
	isExact bool   // scheduling barrier: start of an exact point
}

// pmapPoint records a PMap entry to be resolved at layout.
type pmapPoint struct {
	tnsAddr  uint16
	lbl      label
	regExact bool
	rp       int8 // static RP at a register-exact point (-1 elsewhere)
}

// fn is the per-codefile emission buffer.
type fn struct {
	ins       []rinst
	labelPos  []int32 // label -> instruction index; -1 unbound
	points    []pmapPoint
	procEntry []label // PEP index -> prologue label (noLabel if untranslated)
	stats     emitStats
	curTNS    uint16
	// pendingExact marks the next emitted instruction as an exact-point
	// boundary (scheduling barrier).
	pendingExact bool
	// why records the static escape reason (obs.EscapeReason code) for each
	// TNS address a fallback was emitted at; it becomes the acceleration
	// section's FallbackWhy table. Fragment addresses are disjoint, so the
	// parallel merge is a plain union.
	why map[uint16]uint8
}

type emitStats struct {
	inline        int // RISC instructions emitted inline (excl. table words)
	elidedFlagOps int
}

// newFn makes an emission buffer with room for insCap instructions.
func newFn(nprocs, insCap int) *fn {
	f := &fn{ins: make([]rinst, 0, insCap), procEntry: make([]label, nprocs), why: map[uint16]uint8{}}
	for i := range f.procEntry {
		f.procEntry[i] = noLabel
	}
	return f
}

func (f *fn) newLabel() label {
	f.labelPos = append(f.labelPos, -1)
	return label(len(f.labelPos) - 1)
}

func (f *fn) bind(l label) {
	if f.labelPos[l] != -1 {
		panic("core: label bound twice")
	}
	f.labelPos[l] = int32(len(f.ins))
}

// bound reports whether l has been bound.
func (f *fn) bound(l label) bool { return f.labelPos[l] != -1 }

func (f *fn) add(r rinst) {
	r.tnsAddr = f.curTNS
	if f.pendingExact {
		r.isExact = true
		f.pendingExact = false
	}
	f.ins = append(f.ins, r)
	if !r.isWord {
		f.stats.inline++
	}
}

// --- emission helpers -----------------------------------------------------

func (f *fn) alu(op risc.Op, rd, rs, rt uint8) {
	f.add(rinst{op: op, rd: rd, rs: rs, rt: rt, lbl: noLabel, jLbl: noLabel})
}

func (f *fn) imm(op risc.Op, rt, rs uint8, v int32) {
	f.add(rinst{op: op, rt: rt, rs: rs, imm: v, lbl: noLabel, jLbl: noLabel})
}

func (f *fn) shift(op risc.Op, rd, rt, sh uint8) {
	f.add(rinst{op: op, rd: rd, rt: rt, shamt: sh, lbl: noLabel, jLbl: noLabel})
}

func (f *fn) mem(op risc.Op, rt, base uint8, off int32) {
	f.add(rinst{op: op, rt: rt, rs: base, imm: off, lbl: noLabel, jLbl: noLabel})
}

func (f *fn) br(op risc.Op, rs, rt uint8, l label) {
	f.add(rinst{op: op, rs: rs, rt: rt, lbl: l, jLbl: noLabel})
}

func (f *fn) jAbs(op risc.Op, target uint32) {
	f.add(rinst{op: op, jTarget: target, lbl: noLabel, jLbl: noLabel})
}

func (f *fn) jLocal(op risc.Op, l label) {
	f.add(rinst{op: op, lbl: noLabel, jLbl: l})
}

func (f *fn) jr(rs uint8) {
	f.add(rinst{op: risc.JR, rs: rs, lbl: noLabel, jLbl: noLabel})
}

func (f *fn) brk(code uint32) {
	f.add(rinst{op: risc.BREAK, code: code, lbl: noLabel, jLbl: noLabel})
}

func (f *fn) sys(code uint32) {
	f.add(rinst{op: risc.SYSCALL, code: code, lbl: noLabel, jLbl: noLabel})
}

func (f *fn) nop() {
	f.add(rinst{op: risc.SLL, lbl: noLabel, jLbl: noLabel}) // sll $0,$0,0
}

func (f *fn) word(v uint32) {
	f.add(rinst{isWord: true, imm: int32(v), lbl: noLabel, jLbl: noLabel})
}

func (f *fn) wordLabel(l label) {
	f.add(rinst{isWord: true, jLbl: l, lbl: noLabel})
}

// laCodeWindow loads into reg the data-space address at which the code word
// labelled l can be read (CodeWindow mapping), resolved at layout.
func (f *fn) laCodeWindow(reg uint8, l label) {
	f.add(rinst{op: risc.LUI, rt: reg, laLbl: l, hasLA: true, laHi: true, lbl: noLabel, jLbl: noLabel})
	f.add(rinst{op: risc.ORI, rt: reg, rs: reg, laLbl: l, hasLA: true, lbl: noLabel, jLbl: noLabel})
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
