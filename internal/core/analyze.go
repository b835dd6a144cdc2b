package core

import (
	"fmt"

	"tnsr/internal/codefile"
	"tnsr/internal/tns"
)

// WordKind classifies each word of the code segment, the result of the
// paper's "TNS Code Analysis" phase: disassembling the binary and working
// out every branch path, including sizing CASE tables by depth-first search
// so table words are never misread as instructions.
type WordKind uint8

const (
	KindUnreached WordKind = iota // never reached; treated as data
	KindInstr                     // an executed instruction
	KindTable                     // a CASE table word (count or address)
)

// program is the analyzed form of a codefile.
type program struct {
	file  *codefile.File
	opts  *Options
	kind  []WordKind
	instr []tns.Instr // decoded, valid where kind==KindInstr

	// procOf maps each code word to its procedure index
	// (codefile.File.ProcOf), -1 below every entry.
	procOf []int32

	// labels are addresses that may be entered by dynamic jumps (CASE
	// targets and statement labels); they must be register-exact.
	caseTargets map[uint16]bool

	// blockStart marks basic-block leader addresses.
	blockStart map[uint16]bool

	// rpAt gives the absolute RP before each instruction, or rpConflict /
	// rpUnreached.
	rpAt []int8

	// puzzle marks instructions that must fall into interpreter mode if
	// reached (unresolvable RP, conflicting joins, ...).
	puzzle map[uint16]string

	// rpGuard marks conflicting-RP joins where the attached profile
	// confirmed the propagated value: translation emits a run-time RP
	// guard there instead of an unconditional fallback (rp.go).
	rpGuard map[uint16]bool

	// resultWords per PEP index (-1 = unknown even after analysis; calls
	// then guess and check at run time).
	resultWords []int8
	// guessedProc marks procedures whose result size was guessed rather
	// than derived (from summaries, hints, or analysis).
	guessedProc []bool

	// callSites records, for every call instruction, the assumed result
	// size and whether a run-time RP confirmation must be emitted.
	callSites map[uint16]callSite

	// taintedProc marks procedures whose static RP can be wrong at run
	// time (they contain guessed call sites or puzzle points); all their
	// call return points carry RP confirmations.
	taintedProc []bool

	// liveOut[a] is the set of live variables (R0..R7, CC) after the
	// instruction at a.
	liveOut []uint16

	// trapsPossible is set when the codefile can enable overflow traps
	// (contains SETT 1); the Default translation then emits overflow
	// checks. StmtDebug always emits them.
	trapsPossible bool
	// trapsDynamic is set when the codefile also disables traps (SETT 0):
	// the cheap hardware-trapping translation is then unsafe and explicit
	// check sequences are used instead.
	trapsDynamic bool
}

// analyze performs flow recovery over the whole codefile.
func analyze(f *codefile.File, opts *Options) (*program, error) {
	n := len(f.Code)
	p := &program{
		file:        f,
		opts:        opts,
		kind:        make([]WordKind, n),
		instr:       make([]tns.Instr, n),
		procOf:      f.ProcOf(),
		caseTargets: map[uint16]bool{},
		blockStart:  map[uint16]bool{},
		rpAt:        make([]int8, n),
		puzzle:      map[uint16]string{},
	}
	// Depth-first reachability from every PEP entry and every statement
	// label (labels may be targets of jumps through pointer variables).
	var stack []uint16
	pushAddr := func(a uint16) {
		if int(a) < n && p.kind[a] == KindUnreached {
			stack = append(stack, a)
		}
	}
	for _, pr := range f.Procs {
		pushAddr(pr.Entry)
	}
	for _, st := range f.Statements {
		pushAddr(st.Addr)
	}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if int(a) >= n || p.kind[a] != KindUnreached {
			continue
		}
		w := f.Code[a]
		in := tns.Decode(w)
		p.kind[a] = KindInstr
		p.instr[a] = in

		if in.Major == tns.MajSpecial && in.Sub == tns.SubCASE {
			// The depth-first search that sizes CASE tables: the count
			// word and entries follow the instruction; every entry is a
			// code address and a register-exact target.
			if int(a)+1 >= n {
				return nil, fmt.Errorf("core: CASE at %d runs off the segment", a)
			}
			count := f.Code[a+1]
			p.kind[a+1] = KindTable
			if int(a)+1+int(count) >= n {
				return nil, fmt.Errorf("core: CASE table at %d runs off the segment", a)
			}
			for i := uint16(0); i < count; i++ {
				entryAddr := f.Code[a+2+i]
				p.kind[a+2+i] = KindTable
				p.caseTargets[entryAddr] = true
				pushAddr(entryAddr)
			}
			// Out-of-range CASE falls through past the table.
			pushAddr(a + 2 + count)
			continue
		}
		if in.Major == tns.MajSpecial && in.Sub == tns.SubSETT {
			if in.Operand&1 == 1 {
				p.trapsPossible = true
			} else {
				p.trapsDynamic = true
			}
		}
		if in.IsBranch() {
			pushAddr(in.BranchTargetAddr(a))
		}
		if !in.IsUnconditionalFlow() {
			pushAddr(a + 1)
		}
		// Calls fall through to their return point (already handled by
		// the !IsUnconditionalFlow push above); EXIT does not.
	}

	p.findBlockStarts()
	return p, nil
}

// findBlockStarts marks basic-block leaders: procedure entries, branch
// targets, instructions after branches and calls, CASE targets and
// fall-throughs, and statement labels.
func (p *program) findBlockStarts() {
	mark := func(a uint16) {
		if int(a) < len(p.kind) && p.kind[a] == KindInstr {
			p.blockStart[a] = true
		}
	}
	for _, pr := range p.file.Procs {
		mark(pr.Entry)
	}
	for a := range p.caseTargets {
		mark(a)
	}
	for _, st := range p.file.Statements {
		mark(st.Addr)
	}
	for a := 0; a < len(p.kind); a++ {
		if p.kind[a] != KindInstr {
			continue
		}
		in := p.instr[a]
		if in.IsBranch() {
			mark(in.BranchTargetAddr(uint16(a)))
			mark(uint16(a) + 1)
		}
		if in.IsCall() {
			// The return point is a register-exact re-entry point.
			mark(uint16(a) + 1)
		}
		if in.Major == tns.MajSpecial && in.Sub == tns.SubCASE {
			count := p.file.Code[a+1]
			mark(uint16(a) + 2 + count)
		}
		if in.Major == tns.MajControl && in.Ctl == tns.CtlEXIT {
			mark(uint16(a) + 1)
		}
	}
}

// succs appends the static successor addresses of the instruction at a.
// Calls report their fall-through (return) point; EXIT has none.
func (p *program) succs(a uint16, dst []uint16) []uint16 {
	in := p.instr[a]
	switch {
	case in.Major == tns.MajSpecial && in.Sub == tns.SubCASE:
		count := p.file.Code[a+1]
		for i := uint16(0); i < count; i++ {
			dst = append(dst, p.file.Code[a+2+i])
		}
		dst = append(dst, a+2+count)
		return dst
	case in.Major == tns.MajControl && in.Ctl == tns.CtlEXIT:
		return dst
	case in.Major == tns.MajSpecial && in.Sub == tns.SubSVC &&
		in.Operand == tns.SvcHalt:
		return dst
	case in.IsBranch():
		dst = append(dst, in.BranchTargetAddr(a))
		if !in.IsUnconditionalFlow() {
			dst = append(dst, a+1)
		}
		return dst
	default:
		return append(dst, a+1)
	}
}

// instrEnd returns the address just past the instruction at a, skipping an
// inline CASE table.
func (p *program) instrEnd(a uint16) uint16 {
	in := p.instr[a]
	if in.Major == tns.MajSpecial && in.Sub == tns.SubCASE {
		return a + 2 + p.file.Code[a+1]
	}
	return a + 1
}

// countKinds reports how many words are instructions vs. tables, for the
// size statistics.
func (p *program) countKinds() (instrs, tables int) {
	for _, k := range p.kind {
		switch k {
		case KindInstr:
			instrs++
		case KindTable:
			tables++
		}
	}
	return
}
