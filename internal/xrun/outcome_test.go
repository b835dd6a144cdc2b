package xrun

import (
	"strings"
	"testing"

	"tnsr/internal/backend"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/obs"
	"tnsr/internal/risc"
	"tnsr/internal/tns"
	"tnsr/internal/workloads"
)

// TestOutcomeCheck pins the fidelity contract field by field: an outcome
// that differs from the reference in exactly one compared field is
// rejected with an error naming that field; where a trap fired only the
// memory is exempt, and the trap address is never compared.
func TestOutcomeCheck(t *testing.T) {
	ref := func() *Outcome {
		return &Outcome{Halted: true, ExitStatus: 3, Console: "42", Mem: []uint16{1, 2, 3, 4}}
	}
	if err := ref().Check(ref()); err != nil {
		t.Errorf("identical outcomes: %v", err)
	}
	for _, c := range []struct {
		field string
		mod   func(o *Outcome)
	}{
		{"halted", func(o *Outcome) { o.Halted = false }},
		{"trap", func(o *Outcome) { o.Trap = tns.TrapOverflow }},
		{"exit status", func(o *Outcome) { o.ExitStatus = 4 }},
		{"console", func(o *Outcome) { o.Console = "43" }},
		{"memory", func(o *Outcome) { o.Mem[2] = 7 }},
	} {
		got := ref()
		c.mod(got)
		if err := ref().Check(got); err == nil || !strings.HasPrefix(err.Error(), c.field+":") {
			t.Errorf("%s differs: Check = %v, want an error naming %q", c.field, err, c.field)
		}
	}

	trapped := func(trapP uint16, mem ...uint16) *Outcome {
		return &Outcome{Halted: true, Trap: tns.TrapOverflow, TrapP: trapP, Console: "7", Mem: mem}
	}
	if err := trapped(5, 1, 2).Check(trapped(6, 1, 9)); err != nil {
		t.Errorf("trapping runs whose memories and trap addresses differ: %v", err)
	}
	got := trapped(5, 1, 2)
	got.ExitStatus = 1
	if err := trapped(5, 1, 2).Check(got); err == nil || !strings.HasPrefix(err.Error(), "exit status:") {
		t.Errorf("trapping runs whose exit statuses differ: Check = %v, want an exit status error", err)
	}
}

// TestOutcomeWorkloadRun: a real et1 run, translated for each backend,
// passes Check against its Interpret reference and the telemetry audit,
// and its outcome stays readable after Release.
func TestOutcomeWorkloadRun(t *testing.T) {
	w := workloads.MustBuild("et1", 2)
	want, err := Interpret(interp.New(w.User, w.Lib), 30_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mips", "ob0"} {
		t.Run(name, func(t *testing.T) {
			be, ok := backend.ByName(name)
			if !ok {
				t.Fatalf("backend %q not registered", name)
			}
			user, lib, err := core.AcceleratePair(w.User, w.Lib,
				core.Options{Backend: be}, core.Accelerate)
			if err != nil {
				t.Fatal(err)
			}
			r, err := New(user, lib, risc.Config{})
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.NewRecorder()
			r.Observe(rec)
			if err := r.Run(200_000_000); err != nil {
				t.Fatal(err)
			}
			if r.Sim.Instrs == 0 {
				t.Fatal("no RISC instructions executed")
			}
			if err := want.Check(r.Outcome()); err != nil {
				t.Error(err)
			}
			if err := CheckAccounting(r, rec); err != nil {
				t.Error(err)
			}
			r.Release()
			if err := want.Check(r.Outcome()); err != nil {
				t.Errorf("after Release: %v", err)
			}
		})
	}
}
