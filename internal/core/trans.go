package core

import (
	"fmt"
	"sort"
	"strings"

	"tnsr/internal/backend"
	"tnsr/internal/codefile"
	"tnsr/internal/millicode"
	"tnsr/internal/obs"
	"tnsr/internal/risc"
	"tnsr/internal/tns"
)

// transCtx is the translation context shared by every translator working on
// one codefile: the analyzed program, the options, and derived lookup tables.
// Everything in it is immutable once built, which is what lets per-procedure
// translators run concurrently against it.
type transCtx struct {
	p    *program
	opts *Options
	// milli maps the millicode entry labels to absolute RISC word indexes
	// (the backend's millicode is loaded at 0).
	milli map[string]uint32

	// stmtAt marks statement-boundary addresses.
	stmtAt map[uint16]bool
	// entryOf maps TNS entry addresses to PEP indexes.
	entryOf map[uint16]int
	// procEntryAt marks PEP entry addresses.
	procEntryAt map[uint16]bool
	// predCount approximates CFG in-degree for state-inheritance decisions.
	predCount map[uint16]int
}

func newTransCtx(p *program, opts *Options) *transCtx {
	c := &transCtx{
		p:           p,
		opts:        opts,
		stmtAt:      map[uint16]bool{},
		entryOf:     map[uint16]int{},
		procEntryAt: map[uint16]bool{},
	}
	_, c.milli = opts.Backend.Millicode()
	for _, st := range p.file.Statements {
		c.stmtAt[st.Addr] = true
	}
	for pi, pr := range p.file.Procs {
		c.entryOf[pr.Entry] = pi
		c.procEntryAt[pr.Entry] = true
	}
	c.computePreds()
	return c
}

// computePreds counts CFG predecessors (2 meaning "many").
func (c *transCtx) computePreds() {
	c.predCount = map[uint16]int{}
	var succBuf []uint16
	for a := 0; a < len(c.p.kind); a++ {
		if c.p.kind[a] != KindInstr {
			continue
		}
		succBuf = c.p.succs(uint16(a), succBuf[:0])
		for _, s := range succBuf {
			c.predCount[s]++
		}
	}
	// Addresses enterable from outside static flow count as many.
	for a := range c.p.caseTargets {
		c.predCount[a] += 2
	}
	for _, pr := range c.p.file.Procs {
		c.predCount[pr.Entry] += 2
	}
}

// translator emits RISC code for one address range of the analyzed program
// (in the parallel pipeline, one procedure per fragment). It walks addresses
// in ascending order, which keeps the PMap monotonic. All mutable state —
// the emission buffer (with its label tables and statistics), the abstract
// machine state and the queued stubs — is private to the translator, so
// translators for different fragments never share anything but the
// read-only transCtx.
type translator struct {
	ctx  *transCtx
	p    *program
	f    *fn
	s    *state
	opts *Options

	// stubs queued for emission between procedures (fallback shims, RP
	// check failures, overflow and divide traps).
	stubs []stub
}

// newTranslator creates a translator with fresh state and a code buffer
// with room for what frags are expected to emit (insEstimate).
func newTranslator(ctx *transCtx, frags ...fragment) *translator {
	f := newFn(insEstimate(frags))
	t := &translator{ctx: ctx, p: ctx.p, f: f, opts: ctx.opts}
	t.s = newState(f, ctx.p)
	t.s.noCSE = ctx.opts.DisableCSE
	t.s.alwaysCC = ctx.opts.DisableFlagElision
	return t
}

type stub struct {
	lbl     backend.Label
	kind    uint8 // 'f' fallback, 't' trap
	tnsAddr uint16
	trap    int
	back    backend.Label // for overflow continue-path stubs; NoLabel otherwise
}

// trapsChecked reports whether overflow checks are emitted.
func (t *translator) trapsChecked() bool {
	switch t.opts.Level {
	case codefile.LevelStmtDebug:
		return true
	case codefile.LevelDefault:
		return t.p.trapsPossible
	default:
		return false
	}
}

func (t *translator) fast() bool { return t.opts.Level == codefile.LevelFast }

// hwTrapOK reports whether the cheap hardware-trapping add/subtract may be
// used for overflow detection: the program enables traps (SETT 1) and never
// disables them, so a hardware overflow IS the TNS overflow trap. Programs
// that never enable traps (or toggle them) get explicit check sequences
// that consult ENV.T at run time.
func (t *translator) hwTrapOK() bool {
	return t.p.trapsPossible && !t.p.trapsDynamic
}

func (t *translator) blockLabel(a uint16) backend.Label {
	if l, ok := t.f.blockLbl[a]; ok {
		return l
	}
	l := t.f.newLabel()
	t.f.blockLbl[a] = l
	return l
}

// fragment is one unit of the translation pipeline: the address range of a
// single procedure, [start, end), ending at the entry of the next procedure
// (or the end of the code segment). next is the following procedure's entry
// address, or -1 for the last fragment; it supplies the TNS address queued
// stubs are attributed to, exactly as the serial address walk would.
type fragment struct {
	start, end int
	next       int
}

// insEstimate is the RISC instructions frags are expected to emit: two
// per TNS word and sixteen per procedure (its prologue, exit and stubs).
// The paper workloads emit 1.3 to 2.1 per word, and a one-word procedure
// emits 16, so the buffer is allocated once for nearly every procedure.
func insEstimate(frags []fragment) int {
	n := 0
	for _, fr := range frags {
		n += 2*(fr.end-fr.start) + 16
	}
	return n
}

// fragments splits the program into per-procedure fragments in ascending
// entry-address order — the order the serial translator visits them, so
// concatenating fragment output reproduces the serial instruction stream.
func (c *transCtx) fragments() []fragment {
	n := len(c.p.kind)
	var entries []int
	for _, pr := range c.p.file.Procs {
		a := int(pr.Entry)
		if a < n && c.p.kind[a] == KindInstr {
			entries = append(entries, a)
		}
	}
	sort.Ints(entries)
	// Drop duplicate entries (two PEP rows naming the same address).
	out := entries[:0]
	for i, e := range entries {
		if i == 0 || e != entries[i-1] {
			out = append(out, e)
		}
	}
	entries = out
	frags := make([]fragment, len(entries))
	for i, e := range entries {
		end, next := n, -1
		if i+1 < len(entries) {
			end, next = entries[i+1], entries[i+1]
		}
		frags[i] = fragment{start: e, end: end, next: next}
	}
	return frags
}

// translateRange drives translation over one fragment. It is the loop body
// of the former whole-file translateAll, restricted to [frag.start,
// frag.end): procedure prologues, per-block state management, instruction
// dispatch, and the end-of-procedure stub flush.
func (t *translator) translateRange(frag fragment) error {
	n := len(t.p.kind)

	inTranslatedProc := false
	fallthrough_ := false // previous instruction flows into the next address

	for a := frag.start; a < frag.end; a++ {
		if t.p.kind[a] != KindInstr {
			fallthrough_ = false
			continue
		}
		addr := uint16(a)
		t.f.curTNS = addr

		// Procedure boundary: emit the prologue. (Stubs queued by the
		// previous procedure were flushed at the end of its fragment.)
		if pi, isEntry := t.ctx.entryOf[addr]; isEntry {
			inTranslatedProc = t.procTranslated(pi)
			if inTranslatedProc {
				t.emitPrologue(pi, addr)
				fallthrough_ = true // prologue flows into the body
			}
		}
		if !inTranslatedProc {
			continue
		}

		in := t.p.instr[addr]
		leader := t.p.blockStart[addr]

		if leader {
			// Bind the block label; decide state inheritance.
			lbl := t.blockLabel(addr)
			if t.f.bound(lbl) {
				return fmt.Errorf("core: label for %d bound twice", addr)
			}
			inherit := fallthrough_ && t.ctx.predCount[addr] <= 1 &&
				!t.isExactLeader(addr)
			if !inherit && fallthrough_ {
				// The previous block falls through: it was already
				// canonicalized at its end (see block terminators), so
				// simply reset tracking state.
			}
			t.f.bind(lbl)

			// Puzzle leaders fall straight into interpreter mode.
			if why, bad := t.p.puzzle[addr]; bad {
				t.f.stats.PuzzlePoints++
				t.emitFallback(addr, puzzleReason(why))
				fallthrough_ = false
				continue
			}
			rp := t.p.rpAt[addr]
			if rp == rpUnreached {
				// Reachable only via unanalyzable flow (e.g. statement
				// labels never reached statically): interpreter-only.
				t.emitFallback(addr, obs.EscapeComputedJump)
				fallthrough_ = false
				continue
			}
			if rp == rpAny {
				// Must start with SETRP (the compiler clue); checked in
				// propagateRP, which would have made it a puzzle
				// otherwise.
				if !(in.Major == tns.MajSpecial && in.Sub == tns.SubSETRP) {
					t.f.stats.PuzzlePoints++
					t.emitFallback(addr, obs.EscapeComputedJump)
					fallthrough_ = false
					continue
				}
			}
			if !inherit {
				if rp == rpAny {
					t.s.resetBlock(int(in.Operand & 7)) // SETRP handled below
				} else {
					t.s.resetBlock(int(rp))
				}
			}
			// Exact points: PMap entries and (for register-exact ones)
			// canonical state was ensured by predecessors.
			t.addLeaderPoints(addr)
			// Run-time RP confirmation after calls with guessed result
			// sizes.
			checked := false
			if prev := t.prevInstr(addr); prev >= 0 && t.p.instr[prev].IsCall() {
				checked = t.emitReturnPointCheck(addr)
			}
			// Profile-confirmed joins and profile-seeded computed-jump
			// targets carry the same confirmation (unless the return-point
			// check just emitted the identical compare).
			if t.p.rpGuard[addr] && !checked {
				t.emitRPGuard(addr)
			}
		}

		// Per-instruction liveness for flag elision.
		t.s.ccLive = t.p.liveOut[addr]&liveCC != 0

		ft, err := t.translateInstr(addr, in)
		if err != nil {
			return err
		}
		fallthrough_ = ft
		if ft {
			next := t.p.instrEnd(addr)
			if int(next) < n && t.p.blockStart[next] {
				inheritNext := t.ctx.predCount[next] <= 1 && !t.isExactLeader(next)
				if !inheritNext {
					mask := t.p.liveOut[addr]
					if t.opts.Level == codefile.LevelStmtDebug && t.ctx.stmtAt[next] {
						// Register-exact statement boundary: the debugger
						// may inspect and modify the full register state.
						mask = liveAll
					}
					t.s.canonicalize(mask)
				}
			}
		}
		if in.Major == tns.MajSpecial && in.Sub == tns.SubCASE {
			a = int(t.p.instrEnd(addr)) - 1 // skip the inline table
		}
		t.f.stats.TNSInstrs++
	}

	// End of the procedure: flush its stubs. The serial walk flushed them on
	// reaching the next procedure's entry, after setting curTNS to it, so
	// the stub instructions carry the same attribution here.
	if frag.next >= 0 {
		t.f.curTNS = uint16(frag.next)
	}
	t.flushStubs()
	return nil
}

// isExactLeader reports whether addr is a register-exact leader (no state
// inheritance across it). Statement boundaries are register-exact only
// under StmtDebug; at the Default level they are memory-exact — stores stay
// ordered, but register state and optimizations flow across, exactly the
// distinction the paper draws between the two levels.
func (t *translator) isExactLeader(addr uint16) bool {
	if t.p.caseTargets[addr] {
		return true
	}
	if t.ctx.procEntryAt[addr] {
		return true
	}
	if t.opts.Level == codefile.LevelStmtDebug && t.ctx.stmtAt[addr] {
		return true
	}
	// Return points after calls.
	if prev := t.prevInstr(addr); prev >= 0 && t.p.instr[prev].IsCall() {
		return true
	}
	return false
}

// prevInstr finds the address of the instruction immediately before addr
// (accounting for CASE tables), or -1.
func (t *translator) prevInstr(addr uint16) int {
	for b := int(addr) - 1; b >= 0; b-- {
		if t.p.kind[b] == KindInstr {
			if t.p.instrEnd(uint16(b)) == addr {
				return b
			}
			return -1
		}
		if t.p.kind[b] == KindUnreached {
			return -1
		}
		// KindTable: keep walking back to the CASE instruction.
	}
	return -1
}

// addLeaderPoints records PMap entries for an exact leader: procedure
// entry points (re-entered by calls from interpreter mode), call return
// points, CASE targets, and statement boundaries.
func (t *translator) addLeaderPoints(addr uint16) {
	regExact := false
	memExact := false
	if t.p.caseTargets[addr] {
		regExact = true
	}
	if t.ctx.procEntryAt[addr] {
		regExact = true
	}
	if prev := t.prevInstr(addr); prev >= 0 && t.p.instr[prev].IsCall() {
		regExact = true
	}
	if t.ctx.stmtAt[addr] {
		if t.opts.Level == codefile.LevelStmtDebug {
			regExact = true
		} else {
			memExact = true
		}
	}
	if regExact {
		t.f.pmapAdd(addr, true, t.p.rpAt[addr])
	} else if memExact {
		t.f.pmapAdd(addr, false, -1)
	}
}

// puzzleReason classifies an RP-analysis puzzle message as an escape
// reason: indeterminate RP after a call traces back to an unknown result
// size; every other puzzle is a conflict between static RP assumptions.
func puzzleReason(why string) obs.EscapeReason {
	if strings.Contains(why, "after call") {
		return obs.EscapeIndirectCall
	}
	return obs.EscapeRPConflict
}

// noteFallback records the static reason addr falls into interpreter mode;
// the runtime classifies the escape with it when the fallback fires.
func (t *translator) noteFallback(addr uint16, reason obs.EscapeReason) {
	t.f.why[addr] = uint8(reason)
}

// emitFallback emits the interpreter-mode entry shim inline.
func (t *translator) emitFallback(addr uint16, reason obs.EscapeReason) {
	t.noteFallback(addr, reason)
	t.f.li(risc.RegMT, int32(addr))
	t.f.brk(millicode.BreakFallback)
}

// queueFallbackStub creates an out-of-line fallback stub for addr and
// returns its label (branch there on a failed run-time check).
func (t *translator) queueFallbackStub(addr uint16, reason obs.EscapeReason) backend.Label {
	t.noteFallback(addr, reason)
	l := t.f.newLabel()
	t.stubs = append(t.stubs, stub{lbl: l, kind: 'f', tnsAddr: addr, back: backend.NoLabel})
	return l
}

// queueTrapStub creates a stub raising a TNS trap.
func (t *translator) queueTrapStub(addr uint16, trap int) backend.Label {
	l := t.f.newLabel()
	t.stubs = append(t.stubs, stub{lbl: l, kind: 't', tnsAddr: addr, trap: trap, back: backend.NoLabel})
	return l
}

// queueOvfStub creates the overflow stub: trap if ENV.T is set, otherwise
// resume at back (the V flag is architecturally unobservable except via the
// trap, so nothing else need happen).
func (t *translator) queueOvfStub(addr uint16, back backend.Label) backend.Label {
	l := t.f.newLabel()
	t.stubs = append(t.stubs, stub{lbl: l, kind: 'o', tnsAddr: addr, trap: tns.TrapOverflow, back: back})
	return l
}

func (t *translator) flushStubs() {
	for _, st := range t.stubs {
		t.f.bind(st.lbl)
		switch st.kind {
		case 'f':
			t.f.li(risc.RegMT, int32(st.tnsAddr))
			t.f.brk(millicode.BreakFallback)
		case 't':
			t.f.li(risc.RegMT, int32(st.tnsAddr))
			t.f.brk(uint32(millicode.BreakTrapBase + st.trap))
		case 'o':
			// Overflow: trap only if ENV.T is enabled.
			tmp := uint8(risc.RegMT)
			t.f.imm(risc.ANDI, tmp, risc.RegENV, 0x80)
			skip := t.f.newLabel()
			t.f.br(risc.BEQ, tmp, risc.RegZero, skip)
			t.f.nop()
			t.f.li(risc.RegMT, int32(st.tnsAddr))
			t.f.brk(uint32(millicode.BreakTrapBase + st.trap))
			t.f.bind(skip)
			t.f.jLocal(risc.J, st.back)
			t.f.nop()
		}
	}
	t.stubs = t.stubs[:0]
}
