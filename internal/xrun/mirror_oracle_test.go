package xrun_test

import (
	"testing"

	"tnsr/internal/backend"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/debug"
	"tnsr/internal/risc"
	"tnsr/internal/talc"
	"tnsr/internal/tnsgen"
	"tnsr/internal/xrun"
)

// The mirror invariant (DESIGN.md §6) checked at every switch of every
// runner the differential oracle builds, on both backends at all three
// levels.

func oracleOptions(t *testing.T) tnsgen.OracleOptions {
	t.Helper()
	o := tnsgen.DefaultOracle()
	o.Workers = 1
	for _, name := range []string{"mips", "ob0"} {
		be, ok := backend.ByName(name)
		if !ok {
			t.Fatalf("backend %q not registered", name)
		}
		o.Backends = append(o.Backends, be)
	}
	return o
}

func TestMirrorScenarioCorpus(t *testing.T) {
	checks := xrun.CheckMirror(t)
	scenarios, err := tnsgen.LoadCorpus("../tnsgen/corpus")
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) < 5 {
		t.Fatalf("corpus holds %d scenarios, want at least 5", len(scenarios))
	}
	o := oracleOptions(t)
	for _, s := range scenarios {
		if _, err := tnsgen.RunOracle(s.Subject(), o); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	if checks.Syncs == 0 || checks.FullCopies != 0 {
		t.Errorf("%d syncs checked, %d full copies; want some, and none", checks.Syncs, checks.FullCopies)
	}
	t.Logf("%d syncs, %d rollbacks checked; largest sync %d pages",
		checks.Syncs, checks.Rollbacks, checks.MaxPages)
}

// TestMirrorCampaign runs 40 unsteered campaign programs (every fifth a
// user+library pair, every sixth also through the adaptive
// capture-retranslate-rerun cycle).
func TestMirrorCampaign(t *testing.T) {
	checks := xrun.CheckMirror(t)
	c := &tnsgen.Campaign{
		Seed: 1, N: 40, LibraryEvery: 5, AdaptiveEvery: 6,
		Oracle: oracleOptions(t),
	}
	res := c.Run()
	for _, f := range res.Failures {
		t.Errorf("FAIL %s (seed %d): %s", f.Name, f.Seed, f.Err)
	}
	if checks.Syncs < res.Passes {
		t.Errorf("%d syncs checked over %d passes", checks.Syncs, res.Passes)
	}
	if checks.FullCopies != 0 {
		t.Errorf("%d syncs copied the whole data space", checks.FullCopies)
	}
	t.Logf("%d passes: %d syncs, %d rollbacks checked; largest sync %d pages",
		res.Passes, checks.Syncs, checks.Rollbacks, checks.MaxPages)
}

// debugProg puts bonus alone on page 0, which the program itself never
// writes: the pad array pushes the other globals, and the stack above
// them, to later pages. Only the debugger's own mark can get a write to
// bonus mirrored.
const debugProg = `
INT bonus;
INT pad[0:299];
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
  PUTNUM(bonus);
  PUTNUM(counter);
  PUTNUM(total);
END;
`

// TestMirrorDebuggerWrites: a debugger WriteVar while stopped in each mode
// lands in the memory current in that mode and is mirrored at the next
// switch. Only double is translated, so main stops interpreted and double
// stops in RISC code.
func TestMirrorDebuggerWrites(t *testing.T) {
	checks := xrun.CheckMirror(t)
	f, err := talc.Compile("dbg", debugProg)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Accelerate(f, core.Options{Level: codefile.LevelStmtDebug,
		SelectProcs: map[string]bool{"double": true}}); err != nil {
		t.Fatal(err)
	}
	r, err := xrun.New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := debug.New(r)

	stopAt := func(line int32, wantRISC bool) {
		t.Helper()
		d.ClearAll()
		// Main is untranslated: its statements are not exact points of
		// the translation, which BreakAt reports, but they still break
		// under interpretation.
		if _, err := d.BreakAtStatement(line); err != nil && wantRISC {
			t.Fatal(err)
		}
		if err := d.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		if !r.BPHit || r.InRISCMode() != wantRISC {
			t.Fatalf("line %d: hit=%v risc=%v, want a stop with risc=%v",
				line, r.BPHit, r.InRISCMode(), wantRISC)
		}
	}

	// Interpreted, before the first call. The next switch is the entry
	// into double.
	stopAt(20, false)
	if err := d.WriteVar("bonus", 100); err != nil {
		t.Fatal(err)
	}
	syncs := checks.Syncs
	// In double's translation, first call. The next switch is its exit.
	stopAt(9, true)
	if checks.Syncs == syncs {
		t.Fatal("no switch between the interpreted stop and the RISC stop")
	}
	if v, err := d.ReadVar("bonus"); err != nil || v != 100 {
		t.Fatalf("bonus read in RISC mode = %d (%v), want the interpreted write 100", v, err)
	}
	if err := d.WriteVar("bonus", 200); err != nil {
		t.Fatal(err)
	}
	d.ClearAll()
	if err := d.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !r.Halted || r.Console() != "200530" {
		t.Errorf("halted=%v console %q, want 200, 5, 30", r.Halted, r.Console())
	}
}
