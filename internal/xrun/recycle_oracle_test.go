package xrun_test

import (
	"bytes"
	"os"
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/debug"
	"tnsr/internal/fleet"
	"tnsr/internal/risc"
	"tnsr/internal/talc"
	"tnsr/internal/tnsgen"
	"tnsr/internal/xrun"
)

// The recycled-memory invariant (DESIGN.md §6) checked on every memory
// NewRunner takes while the differential oracle and the fleet run: the
// oracle's passes and the fleet's machines release their runners, so
// later runners take recycled memories. (The mirror tests run the same
// oracle, so their check covers recycled memories too.)

// checkRecycledSome fails t unless some memory was taken from the pool.
func checkRecycledSome(t *testing.T, checks *xrun.RecycleChecks) {
	t.Helper()
	if checks.Recycled == 0 {
		t.Errorf("%d memories taken, none recycled", checks.Taken)
	}
	t.Logf("%d memories taken, %d recycled", checks.Taken, checks.Recycled)
}

func TestRecycleScenarioCorpus(t *testing.T) {
	checks := xrun.CheckRecycled(t)
	scenarios, err := tnsgen.LoadCorpus("../tnsgen/corpus")
	if err != nil {
		t.Fatal(err)
	}
	o := oracleOptions(t)
	for _, s := range scenarios {
		if _, err := tnsgen.RunOracle(s.Subject(), o); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
	checkRecycledSome(t, checks)
}

// TestRecycleCampaign runs TestMirrorCampaign's 40 unsteered programs on
// mips and ob0.
func TestRecycleCampaign(t *testing.T) {
	checks := xrun.CheckRecycled(t)
	c := &tnsgen.Campaign{
		Seed: 1, N: 40, LibraryEvery: 5, AdaptiveEvery: 6,
		Oracle: oracleOptions(t),
	}
	res := c.Run()
	for _, f := range res.Failures {
		t.Errorf("FAIL %s (seed %d): %s", f.Name, f.Seed, f.Err)
	}
	checkRecycledSome(t, checks)
}

// TestRecycleFleetGolden runs TestFleetReportGolden's fleet (16 machines,
// 3 of them chaos, two rounds): every machine releases its runner, and
// the report still equals the golden byte for byte.
func TestRecycleFleetGolden(t *testing.T) {
	checks := xrun.CheckRecycled(t)
	fr, err := fleet.Run(fleet.Config{
		Machines: 16, ChaosMachines: 3, Rounds: 2,
		Level: codefile.LevelDefault, Seed: 2024, ChaosSeed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := fr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../fleet/testdata/fleet-et1.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("the fleet report differs from internal/fleet/testdata/fleet-et1.json")
	}
	if checks.Taken != 32 {
		t.Errorf("%d memories taken, want one per machine and round, 32", checks.Taken)
	}
	checkRecycledSome(t, checks)
}

// TestRecycleSetDataWordInRISC: a debugger write while stopped in RISC
// code lands in the simulator's memory. Released right there, the write is
// still in the simulator's page set; released after the run, the exit sync
// recorded it. Either way the next runner reads zero. Only double is
// translated, so a stop at its statement is a stop in RISC code; bonus
// sits alone on page 0, which the program never writes.
func TestRecycleSetDataWordInRISC(t *testing.T) {
	for _, c := range []struct {
		name   string
		finish bool
	}{{"stopped", false}, {"finished", true}} {
		t.Run(c.name, func(t *testing.T) {
			xrun.CheckRecycled(t)
			f, err := talc.Compile("dbg", debugProg)
			if err != nil {
				t.Fatal(err)
			}
			if err := core.Accelerate(f, core.Options{Level: codefile.LevelStmtDebug,
				SelectProcs: map[string]bool{"double": true}}); err != nil {
				t.Fatal(err)
			}
			img, err := xrun.NewImage(f, nil, risc.Config{})
			if err != nil {
				t.Fatal(err)
			}
			r := img.NewRunner()
			d := debug.New(r)
			if _, err := d.BreakAtStatement(9); err != nil {
				t.Fatal(err)
			}
			if err := d.Run(10_000_000); err != nil {
				t.Fatal(err)
			}
			if !r.BPHit || !r.InRISCMode() {
				t.Fatalf("hit %v in RISC mode %v, want a stop in double's translation", r.BPHit, r.InRISCMode())
			}
			if err := d.WriteVar("bonus", 100); err != nil {
				t.Fatal(err)
			}
			if r.Sim.ReadHalf(0) != 100 {
				t.Fatalf("bonus = %d in the simulator's memory, want 100", r.Sim.ReadHalf(0))
			}
			if c.finish {
				d.ClearAll()
				if err := d.Run(10_000_000); err != nil {
					t.Fatal(err)
				}
				if !r.Halted || r.Console() != "100530" {
					t.Fatalf("halted %v, console %q; want 100, 5, 30", r.Halted, r.Console())
				}
			}
			r.Release()
			next := img.NewRunner()
			if got := next.Sim.ReadHalf(0); got != 0 {
				t.Errorf("the next runner reads bonus = %d, want 0", got)
			}
		})
	}
}
