package core

import (
	"fmt"

	"tnsr/internal/risc"
	"tnsr/internal/tns"
)

// translateInstr dispatches one TNS instruction. It returns whether the
// abstract state flows through to the next address.
func (t *translator) translateInstr(addr uint16, in tns.Instr) (bool, error) {
	defer t.s.unpinAll()
	switch in.Major {
	case tns.MajLoad, tns.MajStor, tns.MajLdb, tns.MajStb,
		tns.MajLdd, tns.MajStd:
		t.transMem(addr, in)
		return true, nil
	case tns.MajControl:
		return t.transControl(addr, in)
	case tns.MajSpecial:
		return t.transSpecial(addr, in)
	}
	return false, fmt.Errorf("core: bad major at %d", addr)
}

func (t *translator) transSpecial(addr uint16, in tns.Instr) (bool, error) {
	s := t.s
	switch in.Sub {
	case tns.SubStack:
		return t.transStackOp(addr, in)

	case tns.SubLDI:
		c := int32(int16(int8(in.Operand)))
		s.pushDesc(slotDesc{kind: lConst, c: c})
		t.setCCFromConst(c)

	case tns.SubLDHI:
		if c, ok := s.constOf(s.rp); ok {
			nc := int32(int16(c<<8 | int32(in.Operand)))
			s.slot[s.rp] = slotDesc{kind: lConst, c: nc}
			break
		}
		a := s.valIn(s.rp, anyRJ)
		s.pin(a)
		r := s.allocTemp()
		t.f.shift(risc.SLL, r, a, 8)
		if in.Operand != 0 {
			t.f.imm(risc.ORI, r, r, int32(in.Operand))
		}
		s.slot[s.rp] = slotDesc{kind: lReg, reg: r, fmt: fRJU}

	case tns.SubADDI:
		t.transAdd(addr, slotDesc{kind: lConst, c: int32(int16(int8(in.Operand)))}, false)

	case tns.SubCMPI:
		c := int32(int16(int8(in.Operand)))
		a := s.valIn(s.rp, signOK)
		if c == 0 {
			s.setCCFromValue(a)
		} else {
			s.pin(a)
			b := s.materializeConst(c)
			s.setCCFromCmp(a, b, false)
		}

	case tns.SubLDRA:
		src := int(in.Operand & 7)
		// Materialize the source to its home so both copies have a clean
		// owner, then push an alias of the home register.
		s.materializeSlot(src)
		d := s.slot[src]
		if d.kind == lNone {
			s.pushDesc(slotDesc{kind: lConst, c: 0})
		} else {
			s.pushDesc(slotDesc{kind: lReg, reg: d.reg, fmt: d.fmt})
		}

	case tns.SubSTAR:
		dst := int(in.Operand & 7)
		a := s.valIn(s.rp, anyRJ|signOK|zeroOK)
		fmt_ := s.slot[s.rp].fmt
		s.pin(a)
		s.popDesc()
		// Writing one half of an existing pair splits the pair first.
		if s.slot[dst].kind == lPairHi {
			s.unpackPair((dst + 1) & 7)
		}
		if s.slot[dst].kind == lReg && s.slot[dst].pair {
			s.unpackPair(dst)
		}
		s.dropSlot(dst)
		s.slot[dst] = slotDesc{kind: lReg, reg: a, fmt: fmt_}
		s.retainTemp(a)

	case tns.SubSETRP:
		// Values stay put; only the stack position changes. Materialize
		// everything first so slot<->register correspondence is plain.
		s.canonicalize(liveAll)
		s.resetBlock(int(in.Operand & 7))

	case tns.SubADDS:
		t.f.imm(risc.ADDIU, risc.RegS, risc.RegS, 2*int32(int16(int8(in.Operand))))
		s.sGen++

	case tns.SubSVC:
		return t.transSVC(addr, in)

	case tns.SubCASE:
		t.transCase(addr, in)
		return false, nil

	case tns.SubSHL, tns.SubSHRL, tns.SubSHRA:
		t.transShift(in)

	case tns.SubANDI:
		a := s.valIn(s.rp, anyRJ)
		s.pin(a)
		r := s.allocTemp()
		t.f.imm(risc.ANDI, r, a, int32(in.Operand))
		s.slot[s.rp] = slotDesc{kind: lReg, reg: r, fmt: fRJZ}
		s.setCCFromValue(r)

	case tns.SubORI:
		a := s.valIn(s.rp, signOK|zeroOK)
		afmt := s.slot[s.rp].fmt
		s.pin(a)
		r := s.allocTemp()
		t.f.imm(risc.ORI, r, a, int32(in.Operand))
		s.slot[s.rp] = slotDesc{kind: lReg, reg: r, fmt: afmt}
		t.ccFromResult(r, afmt)

	case tns.SubLDE, tns.SubLDBE, tns.SubSTE, tns.SubSTBE:
		t.transExtended(addr, in)

	case tns.SubLGA:
		s.pushDesc(slotDesc{kind: lConst, c: int32(in.Operand)})

	case tns.SubLLA:
		r := t.lWordBase()
		s.pin(r)
		out := s.allocTemp()
		t.f.imm(risc.ADDIU, out, r, int32(int16(int8(in.Operand))))
		s.pushDesc(slotDesc{kind: lReg, reg: out, fmt: fRJZ})

	case tns.SubDSHL, tns.SubDSHRL:
		d := t.popPairPinned()
		var a uint8
		if d.kind == lConst {
			a = s.materializeConst(d.c)
		} else {
			a = d.reg
		}
		s.pin(a)
		r := s.allocTemp()
		if in.Sub == tns.SubDSHL {
			t.f.shift(risc.SLL, r, a, in.Operand&31)
		} else {
			t.f.shift(risc.SRL, r, a, in.Operand&31)
		}
		s.pushPair(slotDesc{kind: lReg, reg: r, fmt: fPAIR})
		s.setCCFromValue(r)

	case tns.SubADM:
		t.transADM(addr)

	case tns.SubLDPL:
		s.pushDesc(slotDesc{kind: lConst, c: int32(in.Operand)})

	case tns.SubSETT:
		if in.Operand&1 != 0 {
			t.f.imm(risc.ORI, risc.RegENV, risc.RegENV, 0x80)
		} else {
			t.f.imm(risc.ANDI, risc.RegENV, risc.RegENV, 0x17F)
		}

	default:
		// Undefined instruction: the interpreter traps; so do we.
		l := t.queueTrapStub(addr, tns.TrapBadOp)
		t.f.jLocal(risc.J, l)
		t.f.nop()
		return false, nil
	}
	return true, nil
}

// setCCFromConst records a known condition code.
func (t *translator) setCCFromConst(c int32) {
	s := t.s
	if s.alwaysCC {
		s.ccLive = true
	}
	if !s.ccLive {
		s.cc = ccState{kind: ccNone}
		t.f.stats.ElidedFlagOps++
		return
	}
	// Load the constant's sign into a register lazily: reuse ccVal with a
	// materialized constant only when CC is genuinely consumed; cheapest is
	// to treat $zero specially.
	switch {
	case c == 0:
		s.cc = ccState{kind: ccVal, a: risc.RegZero, b: risc.RegZero}
	default:
		r := s.materializeConst(c)
		s.cc = ccState{kind: ccVal, a: r, b: r}
	}
}

// lWordBase returns a register holding L as a word address (L byte form
// shifted right), cached per block.
func (t *translator) lWordBase() uint8 {
	s := t.s
	k := vkey{kind: 'L', gen: 0, sgen: s.sGen}
	if r, ok := s.lookupVT(k); ok {
		return r
	}
	r := s.allocTemp()
	t.f.shift(risc.SRL, r, risc.RegL, 1)
	s.storeVT(k, r)
	return r
}

// transShift handles SHL/SHRL/SHRA with constant folding.
func (t *translator) transShift(in tns.Instr) {
	s := t.s
	n := in.Operand & 15
	if c, ok := s.constOf(s.rp); ok {
		var nc int32
		switch in.Sub {
		case tns.SubSHL:
			nc = int32(int16(c << n))
		case tns.SubSHRL:
			nc = int32(int16(uint16(c) >> n))
		default:
			nc = int32(int16(c) >> n)
		}
		s.slot[s.rp] = slotDesc{kind: lConst, c: nc}
		t.setCCFromConst(nc)
		return
	}
	var a uint8
	var op risc.Op
	var outFmt fmtKind
	switch in.Sub {
	case tns.SubSHL:
		a = s.valIn(s.rp, anyRJ)
		op, outFmt = risc.SLL, fRJU
	case tns.SubSHRL:
		a = s.valIn(s.rp, zeroOK)
		op, outFmt = risc.SRL, fRJZ
	default:
		a = s.valIn(s.rp, signOK)
		op, outFmt = risc.SRA, fRJS
	}
	s.pin(a)
	r := s.allocTemp()
	t.f.shift(op, r, a, n)
	s.slot[s.rp] = slotDesc{kind: lReg, reg: r, fmt: outFmt}
	t.ccFromResult(r, outFmt)
}

// ccFromResult sets CC from a result register, normalizing RJU first.
func (t *translator) ccFromResult(r uint8, f fmtKind) {
	s := t.s
	if s.alwaysCC {
		s.ccLive = true
	}
	if !s.ccLive {
		s.cc = ccState{kind: ccNone}
		t.f.stats.ElidedFlagOps++
		return
	}
	switch f {
	case fRJS, fRJZ, fPAIR, fLJ:
		// Sign and zeroness of the 32-bit register value match the TNS
		// result (RJZ values are non-negative 16-bit quantities... which
		// is wrong for values with bit 15 set; normalize those too).
		if f == fRJZ {
			// A zero-filled value can still have bit 15 set; CC must see
			// it as negative. Normalize.
			n := s.allocTemp()
			s.f.shift(risc.SLL, n, r, 16)
			s.f.shift(risc.SRA, n, n, 16)
			s.cc = ccState{kind: ccVal, a: n, b: n}
			return
		}
		s.cc = ccState{kind: ccVal, a: r, b: r}
	default: // fRJU
		n := s.allocTemp()
		s.f.shift(risc.SLL, n, r, 16)
		s.f.shift(risc.SRA, n, n, 16)
		s.cc = ccState{kind: ccVal, a: n, b: n}
	}
}

// transAdd implements ADD/SUB/ADDI: pop b (or use the given immediate
// descriptor), pop a, push the sum/difference with overflow handling per
// the option level.
func (t *translator) transAdd(addr uint16, bDesc slotDesc, sub bool) {
	s := t.s
	var b slotDesc
	if bDesc.kind != lNone {
		b = bDesc
		// ADDI: a is the top (popped in place).
	} else {
		b = s.popDesc()
	}
	a := s.popDesc()

	// Constant folding, the disappearing literals.
	if a.kind == lConst && b.kind == lConst {
		a16, b16 := int32(int16(a.c)), int32(int16(b.c))
		var r32 int32
		if sub {
			r32 = a16 - b16
		} else {
			r32 = a16 + b16
		}
		r16 := int32(int16(r32))
		if r16 == r32 || !t.trapsChecked() {
			s.pushDesc(slotDesc{kind: lConst, c: r16})
			t.setCCFromConst(r16)
			return
		}
		// Constant overflow with traps possible: run it for real.
	}

	s.restoreTwo(a, b)
	if t.trapsChecked() {
		// The paper's scheme: shift the operands into left-justified
		// format, where the hardware's trapping 32-bit add IS a trapping
		// 16-bit add (MIPS lacks a direct 16-bit overflow trap).
		aR := s.valIn((s.rp-1+8)&7, 1<<fLJ)
		s.pin(aR)
		bR := s.valIn(s.rp, 1<<fLJ)
		s.pin(bR)
		s.popDesc()
		s.popDesc()
		r := s.allocTemp()
		s.pin(r)
		if !t.hwTrapOK() {
			// Traps toggle at run time: explicit check, trap only if
			// ENV.T is set when it fires.
			op := risc.ADDU
			if sub {
				op = risc.SUBU
			}
			t.f.alu(op, r, aR, bR)
			t1 := s.allocTemp()
			s.pin(t1)
			t2 := s.allocTemp()
			t.f.alu(risc.XOR, t1, r, aR)
			t.f.alu(risc.XOR, t2, r, bR)
			if sub {
				t.f.alu(risc.XOR, t2, aR, bR)
			}
			t.f.alu(risc.AND, t1, t1, t2)
			back := t.f.newLabel()
			ovf := t.queueOvfStub(addr, back)
			t.f.br(risc.BLTZ, t1, 0, ovf)
			t.f.nop()
			t.f.bind(back)
		} else {
			op := risc.ADD
			if sub {
				op = risc.SUB
			}
			t.f.alu(op, r, aR, bR)
		}
		s.pushDesc(slotDesc{kind: lReg, reg: r, fmt: fLJ})
		t.ccFromResult(r, fLJ)
		return
	}

	// No overflow tracking: cheapest forms.
	if bc, ok := descConst(b); ok && bc >= -32768 && bc <= 32767 {
		s.popDesc() // the constant operand disappears
		aR := s.valIn(s.rp, anyRJ)
		s.pin(aR)
		s.popDesc()
		r := s.allocTemp()
		c := bc
		if sub {
			c = -c
		}
		t.f.imm(risc.ADDIU, r, aR, c)
		s.pushDesc(slotDesc{kind: lReg, reg: r, fmt: fRJU})
		t.ccFromResult(r, fRJU)
		return
	}
	aR := s.valIn((s.rp-1+8)&7, anyRJ)
	s.pin(aR)
	bR := s.valIn(s.rp, anyRJ)
	s.pin(bR)
	s.popDesc()
	s.popDesc()
	r := s.allocTemp()
	op := risc.ADDU
	if sub {
		op = risc.SUBU
	}
	t.f.alu(op, r, aR, bR)
	s.pushDesc(slotDesc{kind: lReg, reg: r, fmt: fRJU})
	t.ccFromResult(r, fRJU)
}

// restoreTwo puts two popped descriptors back (a below b) so valIn can
// track them by slot index.
func (s *state) restoreTwo(a, b slotDesc) {
	s.pushDesc(a)
	s.pushDesc(b)
}

func descConst(d slotDesc) (int32, bool) {
	if d.kind == lConst {
		return int32(int16(d.c)), true
	}
	return 0, false
}
