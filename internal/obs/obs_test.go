package obs

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"tnsr/internal/codefile"
)

// fixtureRecorder builds a recorder attached to a tiny synthetic runtime:
// a two-procedure user file translated into an 8-word region above a
// 4-word millicode area, no library.
func fixtureRecorder(t *testing.T) *Recorder {
	t.Helper()
	user := &codefile.File{
		Name: "u",
		Code: make([]uint16, 10),
		Procs: []codefile.Proc{
			{Name: "main", Entry: 0},
			{Name: "leaf", Entry: 6},
		},
		Accel: &codefile.AccelSection{
			RISC:    make([]uint32, 8),
			Entries: []int32{4, 9}, // absolute word indexes, base 4
		},
	}
	rec := NewRecorder()
	rec.Attach(NewAttribution(user, nil, [2]*codefile.AccelSection{user.Accel}, 12, [2]int{4, 100}))
	return rec
}

func TestEscapeReasonNames(t *testing.T) {
	for r := EscapeReason(0); r < NumEscapeReasons; r++ {
		name := r.String()
		if name == "" || name == "invalid" {
			t.Fatalf("reason %d has no name", r)
		}
		back, ok := ReasonFromName(name)
		if !ok || back != r {
			t.Fatalf("round-trip of %q: got %v ok=%v", name, back, ok)
		}
	}
	if _, ok := ReasonFromName("nope"); ok {
		t.Fatal("unknown name accepted")
	}
}

func TestResidencyAttribution(t *testing.T) {
	rec := fixtureRecorder(t)
	// Interpreter: 3 steps in main [0,6), 2 in leaf [6,10).
	for _, p := range []uint16{0, 3, 5} {
		rec.InterpStep(0, p)
	}
	rec.InterpStep(0, 6)
	rec.InterpStep(0, 9)
	// RISC: 2 millicode words, 4 in main's region [4,9), 1 in leaf's [9,12).
	for _, pc := range []uint32{0, 3, 4, 5, 7, 8, 10} {
		rec.RISCStep(pc)
	}
	rec.Escape(0, 5, EscapeRPConflict, true)
	rec.Escape(0, 5, EscapeRPConflict, true)
	rec.Escape(0, 9, EscapeTrap, false)
	rec.EnterRISC()
	rec.PMapLookup(true)
	rec.PMapLookup(false)
	rec.Phase("analyze", 2*time.Millisecond)
	rec.Phase("analyze", time.Millisecond)
	rec.Phase("translate", time.Millisecond)

	rep := rec.Report()
	if rep.Modes.InterpInstrs != 5 || rep.Modes.RISCInstrs != 7 {
		t.Fatalf("mode totals: %+v", rep.Modes)
	}
	if rep.Modes.Interludes != 2 || rep.Modes.RISCEntries != 1 {
		t.Fatalf("transitions: %+v", rep.Modes)
	}
	got := map[string][2]int64{}
	for _, p := range rep.Procs {
		got[p.Name] = [2]int64{p.RISCInstrs, p.InterpInstrs}
	}
	want := map[string][2]int64{
		"main":        {4, 3},
		"leaf":        {1, 2},
		"(millicode)": {2, 0},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("proc residency: got %v want %v", got, want)
	}
	if rec.Escapes[EscapeRPConflict] != 2 || rec.Escapes[EscapeTrap] != 1 {
		t.Fatalf("escape histogram: %v", rec.Escapes)
	}
	if len(rep.Sites) != 2 || rep.Sites[0].Addr != 5 || rep.Sites[0].Count != 2 {
		t.Fatalf("sites: %+v", rep.Sites)
	}
	if rep.PMap.Lookups != 2 || rep.PMap.Hits != 1 || rep.PMap.HitRate != 0.5 {
		t.Fatalf("pmap: %+v", rep.PMap)
	}
	if len(rep.Phases) != 2 || rep.Phases[0].Phase != "analyze" ||
		rep.Phases[0].Seconds != 0.003 {
		t.Fatalf("phases: %+v", rep.Phases)
	}
	if err := Validate(rep); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rec := fixtureRecorder(t)
	rec.InterpStep(0, 1)
	rec.RISCStep(5)
	rec.Escape(0, 1, EscapeUnmapped, true)
	rec.Phase("rp", time.Millisecond)
	rep := rec.Report()
	rep.Workload = "fixture"
	rep.Level = "Default"
	rep.Modes.TotalCycles = 100
	rep.Modes.RISCCycles = 90
	rep.Modes.InterpCycles = 10
	rep.Modes.InterpFraction = 0.1
	rep.Modes.Switches = 2

	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := Validate(back); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("round trip changed the report:\n%+v\n%+v", rep, back)
	}
	if _, err := ParseReport([]byte(`{"schema":"x","bogus_field":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

func TestValidateRejects(t *testing.T) {
	good := func() *Report {
		return &Report{Schema: Schema, Level: "Default"}
	}
	cases := []struct {
		name string
		mut  func(*Report)
	}{
		{"bad schema", func(r *Report) { r.Schema = "v0" }},
		{"empty level", func(r *Report) { r.Level = "" }},
		{"bad reason", func(r *Report) {
			r.Escapes = []EscapeCount{{Reason: "meteor", Count: 1}}
		}},
		{"bad fraction", func(r *Report) { r.Modes.InterpFraction = 1.5 }},
		{"hits exceed lookups", func(r *Report) { r.PMap.Hits = 2 }},
		{"proc sum mismatch", func(r *Report) {
			r.Procs = []ProcResidency{{Name: "p", Space: "user", RISCInstrs: 3}}
		}},
		{"bad phase", func(r *Report) {
			r.Phases = []PhaseTiming{{Phase: "paint", Seconds: 1}}
		}},
	}
	if err := Validate(good()); err != nil {
		t.Fatalf("baseline invalid: %v", err)
	}
	for _, c := range cases {
		r := good()
		c.mut(r)
		if Validate(r) == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestPrometheusExport(t *testing.T) {
	rec := fixtureRecorder(t)
	rec.RISCStep(5)
	rec.Escape(0, 1, EscapeComputedJump, true)
	rep := rec.Report()
	rep.Workload = "fixture"
	var buf bytes.Buffer
	rep.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`tnsr_run_info{workload="fixture",level="None"} 1`,
		`tnsr_mode_instructions_total{mode="risc"} 1`,
		`tnsr_escapes_total{reason="computed-jump"} 1`,
		`tnsr_pmap_lookups_total{result="miss"} 0`,
		`tnsr_proc_instructions_total{proc="main",space="user",mode="risc"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}
