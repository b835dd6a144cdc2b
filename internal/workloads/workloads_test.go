package workloads

import (
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/risc"
	"tnsr/internal/tns"
	"tnsr/internal/xrun"
)

// interpret runs a workload on the pure interpreter.
func interpret(t *testing.T, w *Workload) (*interp.Machine, *xrun.Outcome) {
	t.Helper()
	m := interp.New(w.User, w.Lib)
	out, err := xrun.Interpret(m, 400_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Trap != tns.TrapNone {
		t.Fatalf("%s: trap %d at P=%d space=%d", w.Name, m.Trap, m.TrapP, m.Space)
	}
	return m, out
}

func TestWorkloadsRunAndChecksum(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			w := MustBuild(name, 3)
			m, out := interpret(t, w)
			if len(out.Console) == 0 {
				t.Fatal("no console output")
			}
			// Deterministic: building and running again gives the same.
			_, out2 := interpret(t, MustBuild(name, 3))
			if err := out.Check(out2); err != nil {
				t.Errorf("nondeterministic run: %v", err)
			}
			t.Logf("%s: %d instrs, output %q", name, m.Prof.Instrs, out.Console)
		})
	}
}

// TestWorkloadFidelityAllModes is the system-level fidelity check: every
// workload runs to an identical outcome (xrun.Outcome.Check) under
// interpretation and under all three acceleration levels.
func TestWorkloadFidelityAllModes(t *testing.T) {
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			w := MustBuild(name, 2)
			_, want := interpret(t, w)

			for _, lvl := range []codefile.AccelLevel{
				codefile.LevelStmtDebug, codefile.LevelDefault, codefile.LevelFast,
			} {
				user, lib, err := core.AcceleratePair(w.User, w.Lib,
					core.Options{Level: lvl}, core.Accelerate)
				if err != nil {
					t.Fatalf("%s/%s: %v", name, lvl, err)
				}
				r, err := xrun.New(user, lib, risc.Config{MulLatency: 12, DivLatency: 35})
				if err != nil {
					t.Fatal(err)
				}
				if err := r.Run(800_000_000); err != nil {
					t.Fatalf("%s/%s: %v", name, lvl, err)
				}
				if err := want.Check(r.Outcome()); err != nil {
					t.Errorf("%s/%s: %v", name, lvl, err)
				}
				if frac := r.InterpFraction(); frac > 0.05 {
					t.Errorf("%s/%s: %.1f%% of cycles in interpreter mode", name, lvl, 100*frac)
				}
			}
		})
	}
}
