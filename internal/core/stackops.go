package core

import (
	"tnsr/internal/millicode"
	"tnsr/internal/risc"
	"tnsr/internal/tns"
)

// transStackOp translates the zero-operand register-stack operations.
func (t *translator) transStackOp(addr uint16, in tns.Instr) (bool, error) {
	s := t.s
	f := t.f
	switch in.Operand {
	case tns.OpNOP:

	case tns.OpADD:
		t.transAdd(addr, slotDesc{}, false)
	case tns.OpSUB:
		t.transAdd(addr, slotDesc{}, true)

	case tns.OpMPY:
		t.transMPY(addr)
	case tns.OpDIV, tns.OpMOD:
		t.transDIV(addr, in.Operand == tns.OpMOD, false)

	case tns.OpNEG:
		a := s.valIn(s.rp, signOK)
		s.pin(a)
		if t.trapsChecked() {
			// -32768 negates to itself and overflows.
			back := f.newLabel()
			ovf := t.queueOvfStub(addr, back)
			tr := s.allocTemp()
			f.imm(risc.ADDIU, tr, risc.RegZero, -32768)
			f.br(risc.BEQ, a, tr, ovf)
			f.nop()
			f.bind(back)
		}
		r := s.allocTemp()
		f.alu(risc.SUBU, r, risc.RegZero, a)
		fmtOut := fRJU
		if t.trapsChecked() {
			fmtOut = fRJS // -32768 excluded, so the negation stays in range
		}
		s.slot[s.rp] = slotDesc{kind: lReg, reg: r, fmt: fmtOut}
		t.ccFromResult(r, fmtOut)

	case tns.OpLAND, tns.OpLOR, tns.OpXOR:
		t.transLogic(in.Operand)

	case tns.OpNOT:
		a := s.valIn(s.rp, signOK)
		s.pin(a)
		r := s.allocTemp()
		f.alu(risc.NOR, r, a, risc.RegZero)
		s.slot[s.rp] = slotDesc{kind: lReg, reg: r, fmt: fRJS}
		t.ccFromResult(r, fRJS)

	case tns.OpCMP:
		b := s.valIn(s.rp, signOK)
		s.pin(b)
		a := s.valIn(s.rp-1, signOK)
		s.pin(a)
		s.popDesc()
		s.popDesc()
		s.setCCFromCmp(a, b, false)
	case tns.OpUCMP:
		b := s.valIn(s.rp, zeroOK)
		s.pin(b)
		a := s.valIn(s.rp-1, zeroOK)
		s.pin(a)
		s.popDesc()
		s.popDesc()
		s.setCCFromCmp(a, b, true)

	case tns.OpDADD:
		t.transDAdd(addr, false)
	case tns.OpDSUB:
		t.transDAdd(addr, true)

	case tns.OpDNEG:
		d := t.popPairPinned()
		a := t.pairReg(d)
		s.pin(a)
		if t.trapsChecked() {
			back := f.newLabel()
			ovf := t.queueOvfStub(addr, back)
			tr := s.allocTemp()
			f.li(tr, -2147483648)
			f.br(risc.BEQ, a, tr, ovf)
			f.nop()
			f.bind(back)
		}
		r := s.allocTemp()
		f.alu(risc.SUBU, r, risc.RegZero, a)
		s.pushPair(slotDesc{kind: lReg, reg: r, fmt: fPAIR})
		s.setCCFromValue(r)

	case tns.OpDCMP:
		bd := t.popPairPinned()
		b := t.pairReg(bd)
		s.pin(b)
		ad := t.popPairPinned()
		a := t.pairReg(ad)
		s.pin(a)
		s.setCCFromCmp(a, b, false)

	case tns.OpDTST:
		a := t.pairPeek()
		s.setCCFromValue(a)

	case tns.OpDUP:
		a := s.valIn(s.rp, anyRJ|signOK|zeroOK)
		fmt_ := s.slot[s.rp].fmt
		s.pushDesc(slotDesc{kind: lReg, reg: a, fmt: fmt_})

	case tns.OpDDUP:
		a := t.pairPeek()
		s.pushPair(slotDesc{kind: lReg, reg: a, fmt: fPAIR})

	case tns.OpDEL:
		// Splitting a pair just to discard half would be wasted code.
		if s.slot[s.rp].kind == lPairHi {
			s.unpackPair((s.rp + 1) & 7)
		}
		if s.slot[s.rp].pair {
			s.unpackPair(s.rp)
		}
		s.popDesc()

	case tns.OpDDEL:
		if s.slot[s.rp].pair {
			s.dropSlot(s.rp)
			s.rp = (s.rp - 1) & 7
			s.dropSlot(s.rp)
			s.rp = (s.rp - 1) & 7
		} else {
			if s.slot[s.rp].kind == lPairHi {
				s.unpackPair((s.rp + 1) & 7)
			}
			s.popDesc()
			if s.slot[s.rp].pair {
				s.unpackPair(s.rp)
			}
			if s.slot[s.rp].kind == lPairHi {
				s.unpackPair((s.rp + 1) & 7)
			}
			s.popDesc()
		}

	case tns.OpEXCH:
		// Pure bookkeeping: swap the two descriptors. Pairs split first.
		if s.slot[s.rp].pair || s.slot[s.rp].kind == lPairHi {
			s.valIn(s.rp, anyRJ)
		}
		below := (s.rp - 1 + 8) & 7
		if s.slot[below].pair || s.slot[below].kind == lPairHi {
			s.valIn(below, anyRJ)
		}
		s.slot[s.rp], s.slot[below] = s.slot[below], s.slot[s.rp]

	case tns.OpXCAL:
		t.transXCAL(addr)
		return false, nil

	case tns.OpMOVB, tns.OpMOVW:
		t.transMove(addr, in.Operand)
	case tns.OpCMPB:
		t.transCMPB(addr)
	case tns.OpSCNB:
		t.transSCNB(addr)

	case tns.OpDMPY:
		t.transDMPY(addr)
	case tns.OpDDIV:
		t.transDIV(addr, false, true)

	case tns.OpSWAB:
		a := s.valIn(s.rp, zeroOK)
		s.pin(a)
		r := s.allocTemp()
		s.pin(r)
		t2 := s.allocTemp()
		f.shift(risc.SRL, r, a, 8)
		f.shift(risc.SLL, t2, a, 8)
		f.alu(risc.OR, r, r, t2)
		s.slot[s.rp] = slotDesc{kind: lReg, reg: r, fmt: fRJU}
		t.ccFromResult(r, fRJU)

	case tns.OpCTOD:
		// A sign-extended 16-bit value is already a correct 32-bit pair:
		// the paper's pair packing makes this free.
		d := s.popDesc()
		if d.kind == lConst {
			s.pushPair(slotDesc{kind: lConst, c: int32(int16(d.c)), pair: true})
			break
		}
		s.restoreOne(d)
		a := s.valIn(s.rp, signOK)
		s.popDesc()
		s.retainTemp(a)
		s.pushPair(slotDesc{kind: lReg, reg: a, fmt: fPAIR})

	case tns.OpDTOC:
		d := t.popPairPinned()
		if d.kind == lConst {
			lo := int32(int16(d.c))
			s.pushDesc(slotDesc{kind: lConst, c: lo})
			t.setCCFromConst(lo)
			if t.trapsChecked() && d.c != lo {
				// Constant narrowing overflow: trap if T is on.
				back := f.newLabel()
				ovf := t.queueOvfStub(addr, back)
				f.jLocal(risc.J, ovf)
				f.nop()
				f.bind(back)
			}
			break
		}
		a := d.reg
		s.pin(a)
		if t.trapsChecked() {
			back := f.newLabel()
			ovf := t.queueOvfStub(addr, back)
			tr := s.allocTemp()
			f.shift(risc.SLL, tr, a, 16)
			f.shift(risc.SRA, tr, tr, 16)
			f.br(risc.BNE, tr, a, ovf)
			f.nop()
			f.bind(back)
		}
		s.retainTemp(a)
		s.pushDesc(slotDesc{kind: lReg, reg: a, fmt: fRJU})
		t.ccFromResult(a, fRJU)

	default:
		l := t.queueTrapStub(addr, tns.TrapBadOp)
		f.jLocal(risc.J, l)
		f.nop()
		return false, nil
	}
	return true, nil
}

// restoreOne pushes a popped descriptor back.
func (s *state) restoreOne(d slotDesc) { s.pushDesc(d) }

// pairPeek returns a register holding the top pair's 32-bit value without
// consuming it, packing two independently pushed halves if needed.
func (t *translator) pairPeek() uint8 {
	s := t.s
	if s.slot[s.rp].pair {
		return s.valIn(s.rp, pairOK)
	}
	d := t.popPairPinned()
	if d.kind == lConst {
		s.pushPair(slotDesc{kind: lConst, c: d.c, pair: true})
		return t.pairReg(s.slot[s.rp])
	}
	s.retainTemp(d.reg)
	s.pushPair(slotDesc{kind: lReg, reg: d.reg, fmt: fPAIR})
	return d.reg
}

// popPairPinned pops a pair and immediately pins its register so later
// temporary allocations (constant materialization, the second operand's
// packing) cannot steal it.
func (t *translator) popPairPinned() slotDesc {
	d := t.s.popPair()
	if d.kind == lReg {
		t.s.pin(d.reg)
	}
	return d
}

// pairReg returns a register holding the pair descriptor's 32-bit value.
func (t *translator) pairReg(d slotDesc) uint8 {
	if d.kind == lConst {
		return t.s.materializeConst(d.c)
	}
	t.s.touchTemp(d.reg)
	return d.reg
}

// transLogic handles LAND/LOR/XOR: sign-extension is closed under the
// bitwise operations, so matching formats pass through.
func (t *translator) transLogic(op uint8) {
	s := t.s
	b := s.valIn(s.rp, signOK)
	s.pin(b)
	a := s.valIn(s.rp-1, signOK)
	s.pin(a)
	s.popDesc()
	s.popDesc()
	r := s.allocTemp()
	var rop risc.Op
	switch op {
	case tns.OpLAND:
		rop = risc.AND
	case tns.OpLOR:
		rop = risc.OR
	default:
		rop = risc.XOR
	}
	t.f.alu(rop, r, a, b)
	s.pushDesc(slotDesc{kind: lReg, reg: r, fmt: fRJS})
	t.ccFromResult(r, fRJS)
}

// transMPY: low word of the product, with constant strength reduction and
// optional overflow checking.
func (t *translator) transMPY(addr uint16) {
	s := t.s
	f := t.f
	b := s.popDesc()
	a := s.popDesc()
	// Strength-reduce constant multipliers (the paper's final phase does
	// this; doing it at selection keeps HI/LO free).
	if !t.trapsChecked() {
		if c, ok := descConst(b); ok {
			if t.mulConst(a, c) {
				return
			}
		} else if c, ok := descConst(a); ok {
			if t.mulConst(b, c) {
				return
			}
		}
	}
	s.restoreTwo(a, b)
	aR := s.valIn(s.rp-1, anyRJ)
	s.pin(aR)
	bR := s.valIn(s.rp, anyRJ)
	s.pin(bR)
	s.popDesc()
	s.popDesc()
	f.alu(risc.MULT, 0, aR, bR)
	r := s.allocTemp()
	f.alu(risc.MFLO, r, 0, 0)
	if t.trapsChecked() {
		// The full product of 16-bit operands is exact in 32 bits (the
		// operands must be sign-correct for that, so normalize them).
		// Overflow iff the product is not a sign-extended 16-bit value.
		back := f.newLabel()
		ovf := t.queueOvfStub(addr, back)
		s.pin(r)
		tr := s.allocTemp()
		f.shift(risc.SLL, tr, r, 16)
		f.shift(risc.SRA, tr, tr, 16)
		f.br(risc.BNE, tr, r, ovf)
		f.nop()
		f.bind(back)
	}
	s.pushDesc(slotDesc{kind: lReg, reg: r, fmt: fRJU})
	t.ccFromResult(r, fRJU)
}

// mulConst strength-reduces multiplication by small constants; reports
// whether it emitted anything. The value descriptor a has been popped.
func (t *translator) mulConst(a slotDesc, c int32) bool {
	s := t.s
	if ac, ok := descConst(a); ok {
		r := int32(int16(ac * c))
		s.pushDesc(slotDesc{kind: lConst, c: r})
		t.setCCFromConst(r)
		return true
	}
	neg := false
	uc := c
	if uc < 0 {
		uc, neg = -uc, true
	}
	type plan struct{ sh1, sh2 int8 } // value = (a<<sh1) +/- (a<<sh2)
	var pl plan
	switch {
	case uc == 0:
		s.pushDesc(slotDesc{kind: lConst, c: 0})
		t.setCCFromConst(0)
		return true
	case uc == 1:
		pl = plan{0, -1}
	case isPow2(uc):
		pl = plan{int8(log2(uc)), -1}
	case isPow2(uc - 1):
		pl = plan{int8(log2(uc - 1)), 0} // a<<k + a
	case isPow2(uc + 1):
		pl = plan{int8(log2(uc + 1)), -2} // a<<k - a
	default:
		return false
	}
	s.restoreOne(a)
	aR := s.valIn(s.rp, anyRJ)
	s.pin(aR)
	s.popDesc()
	r := s.allocTemp()
	switch {
	case pl.sh1 == 0 && pl.sh2 == -1:
		t.f.move(r, aR)
	case pl.sh2 == -1:
		t.f.shift(risc.SLL, r, aR, uint8(pl.sh1))
	case pl.sh2 == 0:
		t.f.shift(risc.SLL, r, aR, uint8(pl.sh1))
		t.f.alu(risc.ADDU, r, r, aR)
	case pl.sh2 == -2:
		t.f.shift(risc.SLL, r, aR, uint8(pl.sh1))
		t.f.alu(risc.SUBU, r, r, aR)
	}
	if neg {
		t.f.alu(risc.SUBU, r, risc.RegZero, r)
	}
	s.pushDesc(slotDesc{kind: lReg, reg: r, fmt: fRJU})
	t.ccFromResult(r, fRJU)
	return true
}

func isPow2(v int32) bool { return v > 0 && v&(v-1) == 0 }

func log2(v int32) int {
	n := 0
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// transDIV handles DIV/MOD (16-bit) and DDIV (32-bit): divide-by-zero is
// always checked (the interpreter traps); the overflow case only under
// checked translation.
func (t *translator) transDIV(addr uint16, mod bool, wide bool) {
	s := t.s
	f := t.f
	var aR, bR uint8
	if wide {
		bd := t.popPairPinned()
		bR = t.pairReg(bd)
		s.pin(bR)
		ad := t.popPairPinned()
		aR = t.pairReg(ad)
		s.pin(aR)
	} else {
		bR = s.valIn(s.rp, signOK)
		s.pin(bR)
		aR = s.valIn(s.rp-1, signOK)
		s.pin(aR)
		s.popDesc()
		s.popDesc()
	}
	dz := t.queueTrapStub(addr, tns.TrapDivZero)
	f.br(risc.BEQ, bR, risc.RegZero, dz)
	f.nop()
	if t.trapsChecked() && !mod {
		// Overflow: most-negative / -1.
		back := f.newLabel()
		ovf := t.queueOvfStub(addr, back)
		tr := s.allocTemp()
		if wide {
			f.li(tr, -2147483648)
		} else {
			f.imm(risc.ADDIU, tr, risc.RegZero, -32768)
		}
		skip := f.newLabel()
		f.br(risc.BNE, aR, tr, skip)
		f.nop()
		f.imm(risc.ADDIU, tr, risc.RegZero, -1)
		f.br(risc.BEQ, bR, tr, ovf)
		f.nop()
		f.bind(skip)
		f.bind(back)
	}
	f.alu(risc.DIV, 0, aR, bR)
	r := s.allocTemp()
	op := risc.MFLO
	if mod {
		op = risc.MFHI
	}
	f.alu(op, r, 0, 0)
	if wide {
		s.pushPair(slotDesc{kind: lReg, reg: r, fmt: fPAIR})
		s.setCCFromValue(r)
	} else {
		s.pushDesc(slotDesc{kind: lReg, reg: r, fmt: fRJS})
		t.ccFromResult(r, fRJS)
	}
}

// transDAdd: 32-bit add/subtract on packed pairs — one RISC instruction,
// the payoff of undoing the 16-bit splitting.
func (t *translator) transDAdd(addr uint16, sub bool) {
	s := t.s
	f := t.f
	bd := t.popPairPinned()
	ad := t.popPairPinned()
	if ad.kind == lConst && bd.kind == lConst {
		var r int64
		if sub {
			r = int64(ad.c) - int64(bd.c)
		} else {
			r = int64(ad.c) + int64(bd.c)
		}
		if int64(int32(r)) == r || !t.trapsChecked() {
			s.pushPair(slotDesc{kind: lConst, c: int32(r), pair: true})
			t.setCCFromConst32(int32(r))
			return
		}
	}
	bR := t.pairReg(bd)
	s.pin(bR)
	aR := t.pairReg(ad)
	s.pin(aR)
	r := s.allocTemp()
	s.pin(r)
	if t.trapsChecked() && t.hwTrapOK() {
		// 32-bit pairs trap directly on the hardware add/subtract.
		op := risc.ADD
		if sub {
			op = risc.SUB
		}
		f.alu(op, r, aR, bR)
	} else {
		op := risc.ADDU
		if sub {
			op = risc.SUBU
		}
		f.alu(op, r, aR, bR)
		if t.trapsChecked() {
			back := f.newLabel()
			ovf := t.queueOvfStub(addr, back)
			t1 := s.allocTemp()
			s.pin(t1)
			t2 := s.allocTemp()
			f.alu(risc.XOR, t1, r, aR)
			if sub {
				f.alu(risc.XOR, t2, aR, bR)
			} else {
				f.alu(risc.XOR, t2, r, bR)
			}
			f.alu(risc.AND, t1, t1, t2)
			f.br(risc.BLTZ, t1, 0, ovf)
			f.nop()
			f.bind(back)
		}
	}
	s.pushPair(slotDesc{kind: lReg, reg: r, fmt: fPAIR})
	s.setCCFromValue(r)
}

// setCCFromConst32 records CC for a 32-bit constant result.
func (t *translator) setCCFromConst32(c int32) {
	s := t.s
	if !s.ccLive {
		s.cc = ccState{kind: ccNone}
		t.f.stats.ElidedFlagOps++
		return
	}
	if c == 0 {
		s.cc = ccState{kind: ccVal, a: risc.RegZero, b: risc.RegZero}
		return
	}
	r := s.materializeConst(c)
	s.cc = ccState{kind: ccVal, a: r, b: r}
}

// transDMPY: 32-bit multiply of pairs.
func (t *translator) transDMPY(addr uint16) {
	s := t.s
	f := t.f
	bd := t.popPairPinned()
	bR := t.pairReg(bd)
	s.pin(bR)
	ad := t.popPairPinned()
	aR := t.pairReg(ad)
	s.pin(aR)
	f.alu(risc.MULT, 0, aR, bR)
	r := s.allocTemp()
	f.alu(risc.MFLO, r, 0, 0)
	if t.trapsChecked() {
		// Overflow iff HI is not the sign extension of LO.
		back := f.newLabel()
		ovf := t.queueOvfStub(addr, back)
		s.pin(r)
		h := s.allocTemp()
		s.pin(h)
		f.alu(risc.MFHI, h, 0, 0)
		tr := s.allocTemp()
		f.shift(risc.SRA, tr, r, 31)
		f.br(risc.BNE, h, tr, ovf)
		f.nop()
		f.bind(back)
	}
	s.pushPair(slotDesc{kind: lReg, reg: r, fmt: fPAIR})
	s.setCCFromValue(r)
}

// transMove translates MOVB/MOVW as a millicode call: a temporary barrier.
func (t *translator) transMove(addr uint16, op uint8) {
	s := t.s
	f := t.f
	// Operands were pushed src, dst, count; top is count.
	cnt := s.valIn(s.rp, anyRJ)
	s.pin(cnt)
	s.popDesc()
	dst := s.valIn(s.rp, zeroOK)
	s.pin(dst)
	s.popDesc()
	src := s.valIn(s.rp, zeroOK)
	s.pin(src)
	s.popDesc()
	t.milliBarrier()
	t.argMoves([]uint8{risc.RegT0, risc.RegT0 + 1, risc.RegT0 + 2},
		[]uint8{src, dst, cnt})
	lbl := millicode.LMovb
	if op == tns.OpMOVW {
		lbl = millicode.LMovw
	}
	f.jAbs(risc.JAL, t.ctx.milli[lbl])
	f.nop()
	t.afterMilli()
	s.invalidateLoads(true)
}

func (t *translator) transCMPB(addr uint16) {
	s := t.s
	f := t.f
	cnt := s.valIn(s.rp, zeroOK)
	s.pin(cnt)
	s.popDesc()
	b := s.valIn(s.rp, zeroOK)
	s.pin(b)
	s.popDesc()
	a := s.valIn(s.rp, zeroOK)
	s.pin(a)
	s.popDesc()
	t.milliBarrier()
	t.argMoves([]uint8{risc.RegT0, risc.RegT0 + 1, risc.RegT0 + 2},
		[]uint8{a, b, cnt})
	f.jAbs(risc.JAL, t.ctx.milli[millicode.LCmpb])
	f.nop()
	t.afterMilli()
	s.cc = ccState{kind: ccIn}
}

func (t *translator) transSCNB(addr uint16) {
	s := t.s
	f := t.f
	limit := s.valIn(s.rp, zeroOK)
	s.pin(limit)
	s.popDesc()
	test := s.valIn(s.rp, zeroOK)
	s.pin(test)
	s.popDesc()
	ba := s.valIn(s.rp, zeroOK)
	s.pin(ba)
	s.popDesc()
	t.milliBarrier()
	t.argMoves([]uint8{risc.RegT0, risc.RegT0 + 1, risc.RegT0 + 2},
		[]uint8{ba, test, limit})
	f.jAbs(risc.JAL, t.ctx.milli[millicode.LScnb])
	f.nop()
	t.afterMilli()
	// Result (skip count) arrives in $t0.
	s.tempBusy[0] = true
	s.pushDesc(slotDesc{kind: lReg, reg: risc.RegT0, fmt: fRJZ})
	s.cc = ccState{kind: ccIn}
}

// milliBarrier materializes all slot state out of the temporaries (and the
// symbolic CC if live) because millicode clobbers every temporary.
func (t *translator) milliBarrier() {
	s := t.s
	for i := 0; i < 8; i++ {
		d := s.slot[i]
		if d.kind == lReg && d.reg >= risc.RegT0 && d.reg < risc.RegT0+risc.NumTemp {
			if d.pair {
				// Keep the pair packed but move it home (the home takes
				// the full 32-bit value; canonical unpacking happens at
				// exact points).
				home := homeOf(i)
				s.writeBarrier(home, i)
				s.f.move(home, d.reg)
				s.slot[i].reg = home
			} else {
				s.materializeSlot(i)
			}
		}
	}
	if s.cc.kind == ccVal || s.cc.kind == ccCmp {
		s.materializeCC()
	}
}

// afterMilli resets temporary tracking and the value table.
func (t *translator) afterMilli() {
	s := t.s
	for i := range s.tempBusy {
		s.tempBusy[i] = false
	}
	s.vt = map[vkey]vval{}
	s.memGen++
	s.ptrGen++
}

// argMoves shuffles values into fixed argument registers, using $mt as the
// spare to break cycles.
func (t *translator) argMoves(dsts, srcs []uint8) {
	f := t.f
	pending := make([]int, 0, len(dsts))
	for i := range dsts {
		if dsts[i] != srcs[i] {
			pending = append(pending, i)
		}
	}
	for len(pending) > 0 {
		progressed := false
		for k := 0; k < len(pending); k++ {
			i := pending[k]
			// Safe if no other pending move still reads dsts[i].
			conflict := false
			for _, j := range pending {
				if j != i && srcs[j] == dsts[i] {
					conflict = true
					break
				}
			}
			if !conflict {
				f.move(dsts[i], srcs[i])
				pending = append(pending[:k], pending[k+1:]...)
				progressed = true
				k--
			}
		}
		if !progressed {
			// A cycle: rotate through $mt.
			i := pending[0]
			f.move(risc.RegMT, srcs[i])
			srcs[i] = risc.RegMT
		}
	}
}

// transExtended: 32-bit extended addressing. Slow and checked, exactly as
// the paper laments.
func (t *translator) transExtended(addr uint16, in tns.Instr) {
	s := t.s
	f := t.f
	ad := t.popPairPinned()
	aR := t.pairReg(ad)
	s.pin(aR)

	bad := t.queueTrapStub(addr, tns.TrapAddress)
	switch in.Sub {
	case tns.SubLDE:
		// Word access: word index = addr>>1, bounds then scale back.
		w := s.allocTemp()
		s.pin(w)
		f.shift(risc.SRL, w, aR, 1)
		chk := s.allocTemp()
		f.shift(risc.SRL, chk, w, 16)
		f.br(risc.BNE, chk, risc.RegZero, bad)
		f.nop()
		f.shift(risc.SLL, w, w, 1)
		r := s.allocTemp()
		f.mem(risc.LH, r, w, 0)
		s.pushDesc(slotDesc{kind: lReg, reg: r, fmt: fRJS})
		s.setCCFromValue(r)
	case tns.SubSTE:
		v := s.valIn(s.rp, anyRJ)
		s.pin(v)
		s.popDesc()
		w := s.allocTemp()
		s.pin(w)
		f.shift(risc.SRL, w, aR, 1)
		chk := s.allocTemp()
		f.shift(risc.SRL, chk, w, 16)
		f.br(risc.BNE, chk, risc.RegZero, bad)
		f.nop()
		f.shift(risc.SLL, w, w, 1)
		f.mem(risc.SH, v, w, 0)
		s.invalidateLoads(true)
	case tns.SubLDBE:
		chk := s.allocTemp()
		f.shift(risc.SRL, chk, aR, 17)
		f.br(risc.BNE, chk, risc.RegZero, bad)
		f.nop()
		r := s.allocTemp()
		f.mem(risc.LBU, r, aR, 0)
		s.pushDesc(slotDesc{kind: lReg, reg: r, fmt: fRJZ})
		s.setCCFromValue(r)
	case tns.SubSTBE:
		v := s.valIn(s.rp, anyRJ)
		s.pin(v)
		s.popDesc()
		chk := s.allocTemp()
		f.shift(risc.SRL, chk, aR, 17)
		f.br(risc.BNE, chk, risc.RegZero, bad)
		f.nop()
		f.mem(risc.SB, v, aR, 0)
		s.invalidateLoads(!t.fast())
	}
}

// transADM: add to memory. The atomic-marked form would use an interlocked
// sequence on multiprocessor hardware; the uniprocessor simulator makes the
// plain sequence atomic already, so both forms share code (and cycles
// reflect the extra read-modify-write).
func (t *translator) transADM(addr uint16) {
	s := t.s
	f := t.f
	aR := s.valIn(s.rp, zeroOK)
	s.pin(aR)
	s.popDesc()
	v := s.valIn(s.rp, anyRJ)
	s.pin(v)
	s.popDesc()
	ba := s.allocTemp()
	s.pin(ba)
	f.shift(risc.SLL, ba, aR, 1)
	old := s.allocTemp()
	s.pin(old)
	f.mem(risc.LH, old, ba, 0)
	r := s.allocTemp()
	s.pin(r)
	if t.trapsChecked() {
		lj1 := s.allocTemp()
		s.pin(lj1)
		lj2 := s.allocTemp()
		s.pin(lj2)
		f.shift(risc.SLL, lj1, old, 16)
		f.shift(risc.SLL, lj2, v, 16)
		f.alu(risc.ADDU, r, lj1, lj2)
		back := f.newLabel()
		ovf := t.queueOvfStub(addr, back)
		t1 := s.allocTemp()
		s.pin(t1)
		t2 := s.allocTemp()
		f.alu(risc.XOR, t1, r, lj1)
		f.alu(risc.XOR, t2, r, lj2)
		f.alu(risc.AND, t1, t1, t2)
		f.br(risc.BLTZ, t1, 0, ovf)
		f.nop()
		f.bind(back)
		f.shift(risc.SRA, r, r, 16)
	} else {
		f.alu(risc.ADDU, r, old, v)
	}
	f.mem(risc.SH, r, ba, 0)
	s.invalidateLoads(true)
	t.ccFromResult(r, fRJU)
}
