package core

import (
	"tnsr/internal/backend"
	"tnsr/internal/codefile"
	"tnsr/internal/millicode"
	"tnsr/internal/obs"
	"tnsr/internal/pgo"
	"tnsr/internal/risc"
	"tnsr/internal/tns"
)

// Call, return, branch, CASE and SVC translation: the places where the
// paper's register-exact discipline bites. Every call site and return point
// is register-exact; EXIT returns through the millicode PMap lookup; XCAL
// and SCAL dispatch through the EMap; and run-time RP confirmation checks
// guard calls whose result size was guessed.

// emitPrologue emits a procedure's translated prologue: the frame-building
// steps of the TNS call instruction ("done in the subroutine's prologue",
// as the paper puts it), the code-space bit update, and the caller-RP entry
// check that guards against nonconforming callers.
func (t *translator) emitPrologue(pi int, entry uint16) {
	f := t.f
	f.curTNS = entry
	// A forward call may already have allocated this procedure's entry
	// label; bind it rather than orphaning it.
	f.bind(t.ensureProcLabel(pi))

	// $t0 holds the caller's TNS return address. Push the stack marker
	// exactly as the interpreter's PCAL does: ret, env, caller L.
	f.mem(risc.SH, risc.RegT0, risc.RegS, 2)
	f.mem(risc.SH, risc.RegENV, risc.RegS, 4)
	f.shift(risc.SRL, risc.RegT0+1, risc.RegL, 1)
	f.mem(risc.SH, risc.RegT0+1, risc.RegS, 6)
	f.imm(risc.ADDIU, risc.RegS, risc.RegS, 6)
	f.move(risc.RegL, risc.RegS)

	// Now in the callee: set this codefile's space bit.
	if t.opts.Space == 1 {
		f.imm(risc.ORI, risc.RegENV, risc.RegENV, 0x100)
	} else {
		f.imm(risc.ANDI, risc.RegENV, risc.RegENV, 0x0FF)
	}

	// Entry RP check: compilers keep the register stack empty across
	// calls; a caller arriving with RP != RPEmpty is beyond static
	// analysis, so the body runs interpreted.
	fb := t.queueFallbackStub(entry, obs.EscapeRPConflict)
	f.imm(risc.ANDI, risc.RegT0+1, risc.RegENV, 7)
	f.imm(risc.XORI, risc.RegT0+1, risc.RegT0+1, tns.RPEmpty)
	f.br(risc.BNE, risc.RegT0+1, risc.RegZero, fb)
	f.nop()
}

// branchMask is the canonicalization mask used before control transfers:
// under StmtDebug the full register state (including CC) must be exact,
// since most transfer targets are statement boundaries.
func (t *translator) branchMask(addr uint16) uint16 {
	if t.opts.Level == codefile.LevelStmtDebug {
		return liveAll
	}
	return t.p.liveOut[addr]
}

// transControl translates the control major.
func (t *translator) transControl(addr uint16, in tns.Instr) (bool, error) {
	s := t.s
	switch in.Ctl {
	case tns.CtlBUN:
		s.canonicalize(t.branchMask(addr))
		t.f.jLocal(risc.J, t.blockLabel(in.BranchTargetAddr(addr)))
		t.f.nop()
		return false, nil

	case tns.CtlBCC:
		if in.Cond == tns.CondAlways {
			s.canonicalize(t.branchMask(addr))
			t.f.jLocal(risc.J, t.blockLabel(in.BranchTargetAddr(addr)))
			t.f.nop()
			return false, nil
		}
		if in.Cond == tns.CondNever {
			return true, nil
		}
		// Protect the symbolic CC through canonicalization, then branch
		// on its cheapest form. canonicalize would clear a symbolic CC
		// that is dead *after* the branch, but the branch itself still
		// consumes it, so restore it around the call.
		savedLive := s.ccLive
		s.ccLive = true
		savedCC := s.cc
		s.canonicalize(t.branchMask(addr))
		if s.cc.kind == ccNone {
			s.cc = savedCC
		}
		s.ccLive = savedLive
		t.emitCCBranch(in.Cond, t.blockLabel(in.BranchTargetAddr(addr)))
		if t.p.liveOut[addr]&liveCC == 0 {
			s.cc = ccState{kind: ccNone}
		}
		return true, nil

	case tns.CtlBRZ:
		v := s.valIn(s.rp, signOK|zeroOK)
		s.pin(v)
		s.popDesc()
		s.canonicalize(t.branchMask(addr))
		op := risc.BEQ
		if in.Cond == 1 { // BNZ
			op = risc.BNE
		}
		t.f.br(op, v, risc.RegZero, t.blockLabel(in.BranchTargetAddr(addr)))
		t.f.nop()
		return true, nil

	case tns.CtlPCAL:
		t.transCall(addr, in)
		return false, nil

	case tns.CtlSCAL:
		t.transCall(addr, in)
		return false, nil

	case tns.CtlEXIT:
		t.transExit(addr, in)
		return false, nil
	}
	return false, nil
}

// emitCCBranch emits the branch consuming the current symbolic CC.
func (t *translator) emitCCBranch(cond uint8, target backend.Label) {
	s := t.s
	f := t.f
	cc := s.cc
	if cc.kind == ccNone || cc.kind == ccIn {
		cc = ccState{kind: ccVal, a: risc.RegCC}
	}
	switch cc.kind {
	case ccVal:
		a := cc.a
		switch cond {
		case tns.CondL:
			f.br(risc.BLTZ, a, 0, target)
		case tns.CondE:
			f.br(risc.BEQ, a, risc.RegZero, target)
		case tns.CondLE:
			f.br(risc.BLEZ, a, 0, target)
		case tns.CondG:
			f.br(risc.BGTZ, a, 0, target)
		case tns.CondNE:
			f.br(risc.BNE, a, risc.RegZero, target)
		case tns.CondGE:
			f.br(risc.BGEZ, a, 0, target)
		}
		f.nop()
	case ccCmp:
		a, b := cc.a, cc.b
		slt := risc.SLT
		if cc.unsigned {
			slt = risc.SLTU
		}
		switch cond {
		case tns.CondE:
			f.br(risc.BEQ, a, b, target)
			f.nop()
		case tns.CondNE:
			f.br(risc.BNE, a, b, target)
			f.nop()
		case tns.CondL, tns.CondGE:
			tr := s.allocTemp()
			f.alu(slt, tr, a, b)
			if cond == tns.CondL {
				f.br(risc.BNE, tr, risc.RegZero, target)
			} else {
				f.br(risc.BEQ, tr, risc.RegZero, target)
			}
			f.nop()
		case tns.CondG, tns.CondLE:
			tr := s.allocTemp()
			f.alu(slt, tr, b, a)
			if cond == tns.CondG {
				f.br(risc.BNE, tr, risc.RegZero, target)
			} else {
				f.br(risc.BEQ, tr, risc.RegZero, target)
			}
			f.nop()
		}
	}
}

// transCall translates PCAL and SCAL. The call site is register-exact; the
// translated form is a direct jump to the target's prologue (PCAL within
// this codefile) or an EMap dispatch through millicode (SCAL).
func (t *translator) transCall(addr uint16, in tns.Instr) {
	s := t.s
	f := t.f
	// Nothing on the register stack survives a call; only $env's RP field
	// (stored into the marker by the prologue) must be accurate.
	s.canonicalize(0)

	if in.Ctl == tns.CtlPCAL {
		pep := int(in.Target)
		if pep >= len(t.p.file.Procs) {
			// Bad PEP index: the interpreter will raise the trap.
			t.emitFallback(addr, obs.EscapeTrap)
			return
		}
		if !t.procTranslated(pep) {
			// Selective acceleration: the callee stays interpreted; fall
			// back for the whole call (the interpreter returns to RISC at
			// the return point if that is register-exact, which it is).
			t.emitFallback(addr, obs.EscapeUntranslated)
			return
		}
		f.li(risc.RegT0, int32(addr)+1) // TNS return address
		f.jLocal(risc.J, t.ensureProcLabel(pep))
		f.nop()
		return
	}
	// SCAL: dispatch through the library EMap.
	t.noteFallback(addr, obs.EscapeUntranslated)
	f.li(risc.RegT0, int32(addr)+1)
	f.li(risc.RegT0+1, int32(in.Target))
	f.li(risc.RegMT, int32(addr)) // fallback redoes the SCAL
	f.jAbs(risc.J, t.ctx.milli[millicode.LScal])
	f.nop()
}

// procTranslated reports whether PEP index pi is being translated.
func (t *translator) procTranslated(pi int) bool {
	if t.opts.SelectProcs == nil {
		return true
	}
	return t.opts.SelectProcs[t.p.file.Procs[pi].Name]
}

// ensureProcLabel returns (creating if needed) the prologue label of pi.
func (t *translator) ensureProcLabel(pi int) backend.Label {
	l, ok := t.f.procEntry[pi]
	if !ok {
		l = t.f.newLabel()
		t.f.procEntry[pi] = l
	}
	return l
}

// transXCAL translates the indirect call: register-exact, PLabel in $t1,
// dispatched through millicode.
func (t *translator) transXCAL(addr uint16) {
	s := t.s
	f := t.f
	// The PLabel stays on the architectural stack: canonicalize it into its
	// home register with $env still counting it, so a missed dispatch can
	// break to the interpreter and redo the XCAL exactly (pop included).
	// Every hit path — the devirtualized fast calls below and the millicode
	// dispatcher — consumes it by dropping one RP position from $env before
	// the callee prologue reads $env for the stack marker.
	s.canonicalize(regBit(s.rp))
	pl := homeOf(s.rp)
	postRP := ((s.rp - 1) + 8) & 7
	s.popDesc()
	t.emitDevirt(addr, pl, postRP)
	t.noteFallback(addr, obs.EscapeIndirectCall)
	f.li(risc.RegT0, int32(addr)+1)
	f.move(risc.RegT0+1, pl)
	f.li(risc.RegMT, int32(addr)) // fallback redoes the XCAL
	f.jAbs(risc.J, t.ctx.milli[millicode.LXcal])
	f.nop()
}

// maxDevirtTargets bounds the direct-call fast paths emitted per XCAL site.
const maxDevirtTargets = 3

// emitDevirt turns an XCAL's profile-observed targets into guarded direct
// calls ahead of the EMap dispatch: compare the live PLabel in pl against
// each observed target's encoding and jump straight to its translated
// prologue on a match. A PLabel that matches none of the fast paths falls
// through to the millicode dispatch unchanged, so an incomplete or stale
// target set costs nothing but the compares. Only same-space targets are
// devirtualized (a cross-space transfer must update $env's space bit, which
// is the dispatcher's job).
func (t *translator) emitDevirt(addr uint16, pl uint8, postRP int) {
	prof := t.opts.Profile
	if prof == nil {
		return
	}
	own := pgo.SpaceName(t.opts.Space)
	f := t.f
	emitted := 0
	for _, tg := range prof.Targets(own, addr) {
		if emitted == maxDevirtTargets {
			break
		}
		if tg.Space != own {
			continue
		}
		pep := int(tg.PEP)
		if pep >= len(t.p.file.Procs) || !t.procTranslated(pep) {
			continue
		}
		plVal := tg.PEP
		if t.opts.Space == 1 {
			plVal |= 0x8000 // SpaceLib bit of the PLabel encoding
		}
		next := f.newLabel()
		f.li(risc.RegT0, int32(int16(plVal)))
		f.br(risc.BNE, pl, risc.RegT0, next)
		f.nop()
		// Consume the PLabel left on the architectural stack (see
		// transXCAL): drop one RP position from $env before the prologue
		// writes the stack marker.
		f.imm(risc.ANDI, risc.RegENV, risc.RegENV, ^int32(7)&0x1FF)
		if postRP != 0 {
			f.imm(risc.ORI, risc.RegENV, risc.RegENV, int32(postRP))
		}
		f.li(risc.RegT0, int32(addr)+1) // TNS return address
		f.jLocal(risc.J, t.ensureProcLabel(pep))
		f.nop()
		f.bind(next)
		emitted++
	}
}

// emitReturnPointCheck emits the run-time RP confirmation after a call
// whose result size was guessed — the paper's check that sends execution
// into interpreter mode when the guess was wrong. In a procedure that
// contains any guessed site, every return point is confirmed, because a
// wrong guess shifts the dynamic RP for the rest of the procedure.
func (t *translator) emitReturnPointCheck(retAddr uint16) bool {
	cs, ok := t.p.callSites[t.prevCallAddr(retAddr)]
	tainted := false
	if pi := t.p.procOf[retAddr]; pi >= 0 && int(pi) < len(t.p.taintedProc) {
		tainted = t.p.taintedProc[pi]
	}
	if !ok || (!cs.checked && !tainted) {
		return false
	}
	expected := t.p.rpAt[retAddr]
	if expected < 0 {
		return false
	}
	t.emitRPCheck(retAddr, uint8(expected))
	return true
}

// emitRPGuard emits the profile-confirmed join guard at a block leader: the
// same ANDI/XORI/BNE confirmation a guessed return point gets, comparing
// the dynamic RP in $env (kept synchronized by canonicalize at every block
// boundary) against the statically assumed value. An execution arriving
// with a different RP falls into interpreter mode — the behaviour the
// unprofiled translation gave every execution through this join.
func (t *translator) emitRPGuard(addr uint16) {
	if expected := t.p.rpAt[addr]; expected >= 0 {
		t.emitRPCheck(addr, uint8(expected))
	}
}

func (t *translator) emitRPCheck(addr uint16, expected uint8) {
	f := t.f
	fb := t.queueFallbackStub(addr, obs.EscapeRPConflict)
	tr := uint8(risc.RegT0 + 1)
	f.imm(risc.ANDI, tr, risc.RegENV, 7)
	if expected != 0 {
		f.imm(risc.XORI, tr, tr, int32(expected))
	}
	f.br(risc.BNE, tr, risc.RegZero, fb)
	f.nop()
	t.f.stats.RPChecks++
}

func (t *translator) prevCallAddr(retAddr uint16) uint16 {
	if p := t.prevInstr(retAddr); p >= 0 {
		return uint16(p)
	}
	return retAddr
}

// transExit translates EXIT: canonicalize the function result and CC, sync
// the RP field, and return through the millicode PMap lookup.
func (t *translator) transExit(addr uint16, in tns.Instr) {
	s := t.s
	// The function result (top resultWords registers) and CC are live out.
	mask := uint16(liveCC)
	res := t.p.exitResultWords(addr)
	for j := 0; j < res && j < 8; j++ {
		mask |= regBit(s.rp - j)
	}
	s.canonicalize(mask)
	t.f.li(risc.RegT0, int32(in.Target)) // argument words to cut
	t.f.jAbs(risc.J, t.ctx.milli[millicode.LExit])
	t.f.nop()
}

// transCase translates the CASE indexed jump: bounds check, then a jump
// through an inline table of RISC code addresses (loaded via the code
// window). The table entries were recovered by the analyzer's depth-first
// search; all targets are register-exact.
func (t *translator) transCase(addr uint16, in tns.Instr) {
	s := t.s
	f := t.f
	idx := s.valIn(s.rp, signOK)
	s.pin(idx)
	s.popDesc()
	s.canonicalize(t.branchMask(addr))

	count := t.p.file.Code[addr+1]
	afterLbl := t.blockLabel(addr + 2 + count)

	// Bounds: negative indexes look huge unsigned, so one SLTIU suffices.
	tr := s.allocTemp()
	f.imm(risc.SLTIU, tr, idx, int32(count))
	f.br(risc.BEQ, tr, risc.RegZero, afterLbl)
	f.nop()

	// Table jump. The table lives right here in the code stream; entries
	// are absolute RISC byte addresses read through the code window.
	tblLbl := f.newLabel()
	f.laCodeWindow(tr, tblLbl)
	t2 := s.allocTemp()
	f.shift(risc.SLL, t2, idx, 2)
	f.alu(risc.ADDU, tr, tr, t2)
	f.mem(risc.LW, tr, tr, 0)
	f.jr(tr)
	f.nop()
	f.bind(tblLbl)
	for i := uint16(0); i < count; i++ {
		target := t.p.file.Code[addr+2+i]
		f.wordLabel(t.blockLabel(target))
	}
}

// transSVC translates kernel traps: arguments to $mt/$ra, then SYSCALL.
func (t *translator) transSVC(addr uint16, in tns.Instr) (bool, error) {
	s := t.s
	f := t.f
	switch in.Operand {
	case tns.SvcHalt:
		v := s.valIn(s.rp, anyRJ)
		s.popDesc()
		f.move(risc.RegMT, v)
		f.sys(uint32(in.Operand))
		return false, nil
	case tns.SvcPutchar, tns.SvcPutnum:
		var v uint8
		if in.Operand == tns.SvcPutnum {
			v = s.valIn(s.rp, signOK)
		} else {
			v = s.valIn(s.rp, anyRJ)
		}
		s.popDesc()
		f.move(risc.RegMT, v)
		f.sys(uint32(in.Operand))
		return true, nil
	case tns.SvcPuts:
		cnt := s.valIn(s.rp, zeroOK)
		s.pin(cnt)
		s.popDesc()
		ba := s.valIn(s.rp, zeroOK)
		s.pin(ba)
		s.popDesc()
		f.move(risc.RegMT, ba)
		f.move(risc.RegRA, cnt)
		f.sys(uint32(in.Operand))
		return true, nil
	default:
		l := t.queueTrapStub(addr, tns.TrapBadSVC)
		f.jLocal(risc.J, l)
		f.nop()
		return false, nil
	}
}
