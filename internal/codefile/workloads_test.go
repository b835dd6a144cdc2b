package codefile_test

import (
	"testing"

	"tnsr/internal/backend"
	"tnsr/internal/backend/mips"
	"tnsr/internal/backend/ob0"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/workloads"
)

// TestWorkloadFilesMatchReference: every paper workload's user and
// library codefiles, plain and accelerated at each level for both
// targets, serialize to the reference writer's bytes and parse through
// Parse and Read to the reference decoder's file.
func TestWorkloadFilesMatchReference(t *testing.T) {
	check := func(label string, f *codefile.File) {
		if f == nil {
			return
		}
		if err := codefile.CompareMarshal(f); err != nil {
			t.Errorf("%s: %v", label, err)
			return
		}
		data, _ := f.Marshal()
		if err := codefile.CompareWithReference(data); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	}
	levels := []codefile.AccelLevel{codefile.LevelStmtDebug, codefile.LevelDefault, codefile.LevelFast}
	for _, name := range workloads.Names {
		w, err := workloads.Build(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		check(name+" user", w.User)
		check(name+" lib", w.Lib)
		for _, be := range []backend.Backend{mips.Default, ob0.Default} {
			for _, lvl := range levels {
				u, l, err := core.AcceleratePair(w.User, w.Lib,
					core.Options{Level: lvl, Backend: be}, core.Accelerate)
				if err != nil {
					t.Fatalf("%s %s %v: %v", name, be.Name(), lvl, err)
				}
				label := name + " " + be.Name() + " " + lvl.String()
				check(label+" user", u)
				check(label+" lib", l)
			}
		}
	}
}
