// Package debug implements the paper's debugging story for accelerated
// programs: source-level and CISC-machine-level debugging "much as if the
// program were still running on a microcoded TNS machine".
//
// The mechanics follow the paper exactly:
//
//   - Memory-exact points (statement boundaries under the Default level)
//     support reliable stepping, breakpointing, and inspection of variables
//     in memory: prior statements' stores have completed, later ones have
//     not begun.
//   - Register-exact points (every statement under StmtDebug) additionally
//     make the full TNS register state — R0..R7, RP, CC — inspectable and
//     modifiable in purely CISC terms, because the Accelerator re-creates
//     canonical state there.
//   - The monotonic PMap provides the inverse mapping from a RISC PC back
//     to the "CISC view" address (a binary search, speed uncritical).
//   - Welded statements (a store scheduled into a following branch's delay
//     slot) are reported per translation statistics.
package debug

import (
	"fmt"
	"strings"

	"tnsr/internal/backend"
	"tnsr/internal/codefile"
	"tnsr/internal/interp"
	"tnsr/internal/tns"
	"tnsr/internal/xrun"
)

// Debugger drives an accelerated (or unaccelerated) program under
// breakpoint control.
type Debugger struct {
	R *xrun.Runner
}

// New wraps a mixed-mode runner.
func New(r *xrun.Runner) *Debugger { return &Debugger{R: r} }

// file returns the codefile for a space.
func (d *Debugger) file(space interp.Space) *codefile.File {
	if space == interp.SpaceLib {
		return d.R.Lib
	}
	return d.R.User
}

// Location is a stopped position in CISC terms.
type Location struct {
	Space    interp.Space
	TNSAddr  uint16
	Proc     string
	Line     int32 // source line of the containing statement, or -1
	RISCMode bool  // stopped in translated code (vs. interpreter)
	Exact    bool  // register-exact (full register inspection reliable)
}

// Where reports the current position, using the PMap inverse when stopped
// in RISC code.
func (d *Debugger) Where() Location {
	loc := Location{RISCMode: d.R.InRISCMode()}
	if loc.RISCMode {
		env := uint16(d.R.Sim.Reg[backend.RegENV])
		loc.Space = interp.UnpackENVSpace(env)
		if acc := d.R.LoadedAccel(loc.Space); acc != nil {
			if a, ok := acc.PMap.Inverse(int(d.R.Sim.PC)); ok {
				loc.TNSAddr = a
				idx, re, _ := acc.PMap.Lookup(a)
				loc.Exact = re && int(d.R.Sim.PC) == idx
			}
		}
	} else {
		loc.Space = d.R.Int.Space
		loc.TNSAddr = d.R.Int.P
		loc.Exact = true // the interpreter is always CISC-exact
	}
	f := d.file(loc.Space)
	if pi := d.R.ProcAt(loc.Space, loc.TNSAddr); pi >= 0 {
		loc.Proc = f.Procs[pi].Name
	}
	loc.Line = -1
	// The nearest statement at or before the address names the line.
	var best *codefile.Statement
	for i := range f.Statements {
		st := &f.Statements[i]
		if st.Addr <= loc.TNSAddr && (best == nil || st.Addr > best.Addr) {
			best = st
		}
	}
	if best != nil {
		loc.Line = best.Line
	}
	return loc
}

// BreakAtStatement sets a breakpoint at the statement boundary nearest to
// (at or after) the given source line in the user codefile. It returns the
// TNS address armed.
func (d *Debugger) BreakAtStatement(line int32) (uint16, error) {
	f := d.R.User
	var best *codefile.Statement
	for i := range f.Statements {
		st := &f.Statements[i]
		if st.Line >= line && (best == nil || st.Line < best.Line ||
			(st.Line == best.Line && st.Addr < best.Addr)) {
			best = st
		}
	}
	if best == nil {
		return 0, fmt.Errorf("debug: no statement at or after line %d", line)
	}
	return best.Addr, d.BreakAt(interp.SpaceUser, best.Addr)
}

// BreakAt arms a breakpoint at a TNS address. For translated code the
// address must be a mapped (memory- or register-exact) point; unmapped
// addresses are still honored when execution is interpreted.
func (d *Debugger) BreakAt(space interp.Space, addr uint16) error {
	if !d.R.ArmBreak(uint8(space), addr) && d.R.LoadedAccel(space) != nil {
		return fmt.Errorf("debug: %d is not an exact point in the translation"+
			" (it will still break under interpretation)", addr)
	}
	return nil
}

// ClearAll removes every breakpoint.
func (d *Debugger) ClearAll() {
	d.R.TNSBreaks = nil
	d.R.Sim.Breakpoints = nil
}

// Run resumes until a breakpoint or completion.
func (d *Debugger) Run(budget int64) error { return d.R.Continue(budget) }

// StepStatement runs to the next statement boundary of the user codefile.
func (d *Debugger) StepStatement(budget int64) (Location, error) {
	f := d.R.User
	saved := d.R.TNSBreaks
	savedSim := d.R.Sim.Breakpoints
	d.R.TNSBreaks = map[uint32]bool{}
	d.R.Sim.Breakpoints = map[uint32]bool{}
	for _, st := range f.Statements {
		d.R.ArmBreak(uint8(interp.SpaceUser), st.Addr)
	}
	err := d.R.Continue(budget)
	d.R.TNSBreaks = saved
	d.R.Sim.Breakpoints = savedSim
	return d.Where(), err
}

// Registers returns the TNS register state in CISC terms. At register-exact
// points (always, under StmtDebug) the values are exact; at memory-exact
// points the paper warns they may not be.
func (d *Debugger) Registers() (R [8]uint16, RP uint8, CC int8) {
	if d.R.InRISCMode() {
		s := d.R.Sim
		for i := 0; i < 8; i++ {
			R[i] = uint16(s.Reg[backend.RegR0+i])
		}
		RP = uint8(s.Reg[backend.RegENV] & 7)
		cc := int32(s.Reg[backend.RegCC])
		switch {
		case cc < 0:
			CC = -1
		case cc > 0:
			CC = 1
		}
		return
	}
	m := d.R.Int
	return m.R, m.RP, m.CC
}

// SetRegister modifies an emulated TNS register. Reliable only at
// register-exact points (the StmtDebug promise); the paper notes that at
// plain memory-exact points modification may not take effect.
func (d *Debugger) SetRegister(n int, v uint16) {
	if d.R.InRISCMode() {
		d.R.Sim.Reg[backend.RegR0+(n&7)] = uint32(int32(int16(v)))
		return
	}
	d.R.Int.R[n&7] = v
}

// ReadVar reads a variable by name: a global, or a local/parameter of the
// procedure containing the current position (using the live L register).
func (d *Debugger) ReadVar(name string) (int32, error) {
	sym, base, err := d.resolveVar(name)
	if err != nil {
		return 0, err
	}
	addr := uint16(int(base) + int(sym.Addr))
	w := d.R.DataWord(addr)
	if sym.Words == 2 {
		return int32(uint32(w)<<16 | uint32(d.R.DataWord(addr+1))), nil
	}
	return int32(int16(w)), nil
}

// WriteVar stores a variable by name (memory modification is reliable at
// memory-exact points; the operand-fetch caveat the paper gives applies to
// subsequent statements only under Default).
func (d *Debugger) WriteVar(name string, v int32) error {
	sym, base, err := d.resolveVar(name)
	if err != nil {
		return err
	}
	addr := uint16(int(base) + int(sym.Addr))
	if sym.Words == 2 {
		d.R.SetDataWord(addr, uint16(uint32(v)>>16))
		d.R.SetDataWord(addr+1, uint16(v))
		return nil
	}
	d.R.SetDataWord(addr, uint16(v))
	return nil
}

func (d *Debugger) resolveVar(name string) (*codefile.Symbol, uint16, error) {
	loc := d.Where()
	f := d.file(loc.Space)
	upper := strings.ToUpper(name)
	pi := int32(d.R.ProcAt(loc.Space, loc.TNSAddr))
	// Prefer a local/parameter of the current procedure.
	for i := range f.Symbols {
		s := &f.Symbols[i]
		if strings.ToUpper(s.Name) == upper && s.Proc == pi && s.Proc >= 0 {
			return s, d.currentL(), nil
		}
	}
	for i := range f.Symbols {
		s := &f.Symbols[i]
		if strings.ToUpper(s.Name) == upper && s.Proc == -1 {
			return s, 0, nil
		}
	}
	return nil, 0, fmt.Errorf("debug: no symbol %q in scope", name)
}

func (d *Debugger) currentL() uint16 {
	if d.R.InRISCMode() {
		return uint16(d.R.Sim.Reg[backend.RegL] / 2)
	}
	return d.R.Int.L
}

// DisassembleTNS renders the CISC view around an address.
func (d *Debugger) DisassembleTNS(space interp.Space, addr uint16, n int) string {
	f := d.file(space)
	var b strings.Builder
	for i := 0; i < n && int(addr)+i < len(f.Code); i++ {
		a := addr + uint16(i)
		fmt.Fprintf(&b, "%5d: %s\n", a, tns.Disassemble(a, f.Code[a]))
	}
	return b.String()
}

// DisassembleRISC renders the translated view at the current RISC
// position, reading the words through the runner's image.
func (d *Debugger) DisassembleRISC(n int) string {
	code := d.R.Image().Code()
	var b strings.Builder
	for i := 0; i < n && int(d.R.Sim.PC)+i < code.Len(); i++ {
		pc := d.R.Sim.PC + uint32(i)
		fmt.Fprintf(&b, "%8d: %s\n", pc, d.R.Backend().Disasm(pc, code.Word(pc)))
	}
	return b.String()
}

// WeldedStatements reports how many statement pairs the scheduler welded
// (a store moved into a branch delay slot), per the translation statistics.
func (d *Debugger) WeldedStatements() int {
	n := 0
	if d.R.User.Accel != nil {
		n += d.R.User.Accel.Stats.WeldedStmts
	}
	if d.R.Lib != nil && d.R.Lib.Accel != nil {
		n += d.R.Lib.Accel.Stats.WeldedStmts
	}
	return n
}
