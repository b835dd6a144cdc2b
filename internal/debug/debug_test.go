package debug

import (
	"strings"
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/millicode"
	"tnsr/internal/obs"
	"tnsr/internal/pgo"
	"tnsr/internal/risc"
	"tnsr/internal/talc"
	"tnsr/internal/xrun"
)

const prog = `
INT counter;
INT total;
INT PROC double(x); INT x;
BEGIN
  INT local;
  local := x + x;
  RETURN local;
END;
PROC main MAIN;
BEGIN
  INT i;
  counter := 0;
  total := 0;
  FOR i := 1 TO 5 DO
  BEGIN
    counter := counter + 1;
    total := total + double(i);
  END;
END;
`

func makeDebugger(t *testing.T, lvl codefile.AccelLevel) *Debugger {
	t.Helper()
	f, err := talc.Compile("dbg", prog)
	if err != nil {
		t.Fatal(err)
	}
	if lvl != codefile.LevelNone {
		if err := core.Accelerate(f, core.Options{Level: lvl}); err != nil {
			t.Fatal(err)
		}
	}
	r, err := xrun.New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return New(r)
}

func TestBreakpointAndInspect(t *testing.T) {
	for _, lvl := range []codefile.AccelLevel{
		codefile.LevelNone, codefile.LevelStmtDebug, codefile.LevelDefault,
	} {
		lvl := lvl
		t.Run(lvl.String(), func(t *testing.T) {
			d := makeDebugger(t, lvl)
			// Break where "total := total + double(i)" runs (line 18).
			addr, err := d.BreakAtStatement(18)
			if err != nil {
				t.Fatal(err)
			}
			hits := 0
			for i := 0; i < 10; i++ {
				if err := d.Run(10_000_000); err != nil {
					t.Fatal(err)
				}
				if !d.R.BPHit {
					break
				}
				hits++
				loc := d.Where()
				if loc.TNSAddr != addr {
					t.Fatalf("stopped at %d, want %d", loc.TNSAddr, addr)
				}
				if loc.Proc != "main" {
					t.Errorf("proc = %q", loc.Proc)
				}
				c, err := d.ReadVar("counter")
				if err != nil {
					t.Fatal(err)
				}
				if int(c) != hits {
					t.Errorf("hit %d: counter = %d", hits, c)
				}
				i2, err := d.ReadVar("i")
				if err != nil {
					t.Fatal(err)
				}
				if int(i2) != hits {
					t.Errorf("hit %d: i = %d", hits, i2)
				}
			}
			if hits != 5 {
				t.Errorf("breakpoint hit %d times, want 5", hits)
			}
			if !d.R.Halted {
				t.Error("program did not finish")
			}
			tot, err := d.ReadVar("total")
			if err != nil {
				t.Fatal(err)
			}
			if tot != 2*(1+2+3+4+5) {
				t.Errorf("total = %d", tot)
			}
		})
	}
}

func TestWriteVarChangesExecution(t *testing.T) {
	d := makeDebugger(t, codefile.LevelStmtDebug)
	addr, err := d.BreakAtStatement(18)
	if err != nil {
		t.Fatal(err)
	}
	_ = addr
	if err := d.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !d.R.BPHit {
		t.Fatal("no breakpoint hit")
	}
	// Memory modification at a memory-exact point is reliable.
	if err := d.WriteVar("total", 1000); err != nil {
		t.Fatal(err)
	}
	d.ClearAll()
	if err := d.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	tot, err := d.ReadVar("total")
	if err != nil {
		t.Fatal(err)
	}
	if tot != 1000+30 {
		t.Errorf("total = %d, want 1030", tot)
	}
}

func TestStepStatement(t *testing.T) {
	d := makeDebugger(t, codefile.LevelStmtDebug)
	lines := []int32{}
	for i := 0; i < 8; i++ {
		loc, err := d.StepStatement(1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if d.R.Halted {
			break
		}
		lines = append(lines, loc.Line)
	}
	if len(lines) < 4 {
		t.Fatalf("too few steps: %v", lines)
	}
	// The first statements of main are lines 13 and 14.
	found := false
	for _, l := range lines {
		if l == 14 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected to step through line 14; got %v", lines)
	}
}

func TestRegistersAtExactPoints(t *testing.T) {
	d := makeDebugger(t, codefile.LevelStmtDebug)
	if _, err := d.BreakAtStatement(17); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !d.R.BPHit {
		t.Fatal("no hit")
	}
	loc := d.Where()
	if d.R.InRISCMode() && !loc.Exact {
		t.Error("StmtDebug statement boundaries should be register-exact")
	}
	_, rp, _ := d.Registers()
	if rp != 7 {
		t.Errorf("RP at statement boundary = %d, want 7 (empty)", rp)
	}
}

func TestDisassemblyViews(t *testing.T) {
	d := makeDebugger(t, codefile.LevelDefault)
	if _, err := d.BreakAtStatement(14); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	loc := d.Where()
	cisc := d.DisassembleTNS(loc.Space, loc.TNSAddr, 4)
	if !strings.Contains(cisc, ":") || len(cisc) < 10 {
		t.Errorf("CISC view: %q", cisc)
	}
	if d.R.InRISCMode() {
		mips := d.DisassembleRISC(4)
		if len(mips) < 10 {
			t.Errorf("RISC view: %q", mips)
		}
	}
}

// TestUnmappedBreakError checks the diagnostic for non-exact addresses.
func TestUnmappedBreakError(t *testing.T) {
	d := makeDebugger(t, codefile.LevelDefault)
	// Find an address that is an instruction but not a statement boundary.
	f := d.R.User
	stmts := map[uint16]bool{}
	for _, st := range f.Statements {
		stmts[st.Addr] = true
	}
	var tryAddr uint16
	for a := range f.Code {
		if _, _, ok := f.Accel.PMap.Lookup(uint16(a)); !ok {
			tryAddr = uint16(a)
			break
		}
	}
	if err := d.BreakAt(interp.SpaceUser, tryAddr); err == nil {
		t.Log("address happened to be mapped; acceptable")
	}
}

// TestSharedEntryOneOwner: where two PEP rows share an entry (codefile.Read
// accepts that), the body belongs to the later row everywhere a code word
// is attributed to a procedure: the debugger's location, the PGO profile's
// residency, the obs report's residency and the quarantine report.
func TestSharedEntryOneOwner(t *testing.T) {
	const owner = "alias"
	f, err := talc.Compile("dbg", prog)
	if err != nil {
		t.Fatal(err)
	}
	alias := f.Procs[f.ProcByName("double")]
	alias.Name = owner
	f.Procs = append(f.Procs, alias)

	// An interpreted run, captured, stopped at the shared entry.
	r, err := xrun.New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := pgo.NewCapture()
	r.Capture(c)
	d := New(r)
	if err := d.BreakAt(interp.SpaceUser, alias.Entry); err != nil {
		t.Fatal(err)
	}
	if err := d.Run(10_000_000); err != nil || !r.BPHit {
		t.Fatalf("no stop at the shared entry (err %v)", err)
	}
	if loc := d.Where(); loc.Proc != owner {
		t.Errorf("debugger at the shared entry: proc %q, want %q", loc.Proc, owner)
	}
	d.ClearAll()
	if err := d.Run(10_000_000); err != nil || !r.Halted {
		t.Fatalf("run did not finish (err %v)", err)
	}
	owned := map[string]int64{}
	for _, sp := range c.Profile().Spaces {
		for _, p := range sp.Procs {
			owned[p.Name] += p.InterpInstrs
		}
	}
	if owned["double"] > 0 || owned[owner] == 0 {
		t.Errorf("PGO profile: %d body instructions under double and %d under %q, want all under %q",
			owned["double"], owned[owner], owner, owner)
	}

	// Translate the body alone and damage its entry: every call enters
	// translated code at the shared entry and is rolled back until the
	// procedure is quarantined.
	acc := f.Pristine()
	if err := core.Accelerate(acc, core.Options{Level: codefile.LevelDefault,
		SelectProcs: map[string]bool{owner: true}}); err != nil {
		t.Fatal(err)
	}
	idx, _, ok := acc.Accel.PMap.Lookup(alias.Entry)
	if !ok {
		t.Fatal("shared entry not mapped")
	}
	acc.Accel.RISC[idx-millicode.UserCodeBase] = risc.EncBreak(7) // no such break code
	r2, err := xrun.New(acc, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	r2.Observe(rec)
	if err := r2.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	rep := r2.Report(rec)
	if len(rep.Quarantined) != 1 || rep.Quarantined[0].Name != owner {
		t.Errorf("quarantine report %+v, want %q alone", rep.Quarantined, owner)
	}
	clear(owned)
	for _, p := range rep.Procs {
		owned[p.Name] += p.InterpInstrs + p.RISCInstrs
	}
	if owned["double"] > 0 || owned[owner] == 0 {
		t.Errorf("obs report: %d body instructions under double and %d under %q, want all under %q",
			owned["double"], owned[owner], owner, owner)
	}
}
