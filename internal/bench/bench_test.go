package bench

import (
	"strings"
	"testing"

	"tnsr/internal/backend"
	"tnsr/internal/codefile"
)

// smallRows measures with tiny iteration counts for unit-test speed.
func smallRows(t *testing.T) []*Row {
	t.Helper()
	var rows []*Row
	small := map[string]int{"dhry16": 10, "dhry32": 10, "tal": 1, "axcel": 1, "et1": 5}
	for name, it := range map[string]int{"dhry16": small["dhry16"], "et1": small["et1"]} {
		r, err := MeasureWorkload(name, it, nil)
		if err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	return rows
}

func TestMeasureWorkloadShape(t *testing.T) {
	r, err := MeasureWorkload("dhry16", 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Who-wins shape checks from the paper.
	if !(r.CISCTime["VLX"] < r.CISCTime["CLX800"]) {
		t.Error("VLX should beat CLX 800")
	}
	if !(r.CISCTime["Cyclone"] < r.CISCTime["VLX"]) {
		t.Error("Cyclone should beat VLX")
	}
	if !(r.InterpTime > r.CISCTime["CLX800"]) {
		t.Error("interpretation should be slower than CLX 800 hardware")
	}
	for _, lvl := range Levels {
		if !(r.AccelTime[lvl] < r.InterpTime) {
			t.Errorf("%s should beat interpretation", lvl)
		}
		if e := r.Expansion[lvl]; e < 1.0 || e > 4.0 {
			t.Errorf("%s expansion %.2f outside plausible range", lvl, e)
		}
	}
	// Fast <= Default <= StmtDebug in time.
	if !(r.AccelTime[codefile.LevelFast] <= r.AccelTime[codefile.LevelDefault]) {
		t.Errorf("Fast (%.3g) should not be slower than Default (%.3g)",
			r.AccelTime[codefile.LevelFast], r.AccelTime[codefile.LevelDefault])
	}
	if !(r.AccelTime[codefile.LevelDefault] <= r.AccelTime[codefile.LevelStmtDebug]) {
		t.Errorf("Default (%.3g) should not be slower than StmtDebug (%.3g)",
			r.AccelTime[codefile.LevelDefault], r.AccelTime[codefile.LevelStmtDebug])
	}
	// Expansion ordering: Fast <= Default <= StmtDebug.
	if !(r.Expansion[codefile.LevelFast] <= r.Expansion[codefile.LevelDefault]) {
		t.Error("Fast expansion should not exceed Default")
	}
	if !(r.Expansion[codefile.LevelDefault] <= r.Expansion[codefile.LevelStmtDebug]) {
		t.Error("Default expansion should not exceed StmtDebug")
	}
}

func TestTablesRender(t *testing.T) {
	rows := smallRows(t)
	for name, s := range map[string]string{
		"t1": Table1(rows), "t2": Table2(rows),
		"t3": Table3(rows), "t4": Table4(rows),
		"f1": Figure1(rows), "f2": Figure2(rows),
	} {
		if len(s) < 40 || !strings.Contains(s, "dhry16") && name[0] == 't' {
			t.Errorf("%s: suspicious render:\n%s", name, s)
		}
	}
	// ET1 software rows print n/a, as in the paper.
	if !strings.Contains(Table1(rows), "n/a") {
		t.Error("Table 1 should mark ET1 software modes n/a")
	}
}

func TestExitLookupCycles(t *testing.T) {
	cyc, err := ExitLookupCycles()
	if err != nil {
		t.Fatal(err)
	}
	if cyc < 8 || cyc > 16 {
		t.Errorf("EXIT lookup = %d cycles; paper says 11, expected 8-16", cyc)
	}
	t.Logf("EXIT PMap lookup: %d cycles (paper: 11)", cyc)
}

func TestAdversarialResidency(t *testing.T) {
	noHints, withHints, err := AdversarialResidency()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("residency: no hints %.3f%%, with hints %.3f%%", 100*noHints, 100*withHints)
	if noHints <= 0 {
		t.Error("the unhinted program should enter interpreter mode at least once")
	}
	if noHints > 0.01 {
		t.Errorf("unhinted residency %.2f%% exceeds the paper's <1%% claim", 100*noHints)
	}
	if withHints >= noHints {
		t.Error("hints should reduce interpreter residency")
	}
}

func TestAblation(t *testing.T) {
	rows, err := Ablate("dhry16", 30, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", AblationTable("dhry16", rows))
	base := rows[0]
	for _, r := range rows[1:] {
		if r.Cycles < base.Cycles*0.999 {
			t.Errorf("%s should not be faster than the full optimizer", r.Name)
		}
	}
	// Flag elision must matter (the paper's most important optimization).
	if rows[1].Cycles < base.Cycles*1.01 {
		t.Errorf("disabling flag elision changed cycles by <1%%: %0.f vs %0.f",
			rows[1].Cycles, base.Cycles)
	}
	// benchtab -ablation passes its argument through: a bad name is an
	// error, not a panic.
	if _, err := Ablate("nope", 1, nil); err == nil {
		t.Error("Ablate accepted an unknown workload")
	}
}

// TestOb0Leg measures a small dhry16 for ob0 through MeasureWorkload and
// Ablate. Both check every run's outcome (each level, each variant)
// against the interpreter's and fail on a difference; the ob0 cycles
// must then differ from the mips ones, or the target was never used.
func TestOb0Leg(t *testing.T) {
	ob0, ok := backend.ByName("ob0")
	if !ok {
		t.Fatal("ob0 is not registered")
	}
	mipsRow, err := MeasureWorkload("dhry16", 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	ob0Row, err := MeasureWorkload("dhry16", 10, ob0)
	if err != nil {
		t.Fatal(err)
	}
	if ob0Row.RISCCycles == mipsRow.RISCCycles {
		t.Errorf("MeasureWorkload: ob0 and mips both ran %.0f cycles", ob0Row.RISCCycles)
	}

	mipsAbl, err := Ablate("dhry16", 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	ob0Abl, err := Ablate("dhry16", 10, ob0)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ob0Abl {
		if r.Cycles == mipsAbl[i].Cycles {
			t.Errorf("Ablate %s: ob0 and mips both ran %.0f cycles", r.Name, r.Cycles)
		}
	}
}

// TestCrossover runs the static/dynamic experiment at both ends: every
// run's outcome is checked against the interpreter's inside Crossover,
// and the short run must favor dynamic translation, the long one static.
func TestCrossover(t *testing.T) {
	points, err := Crossover([]int{1, 2500})
	if err != nil {
		t.Fatal(err)
	}
	if !points[0].DynamicWinning || points[1].DynamicWinning {
		t.Errorf("winners: %+v", points)
	}
}
