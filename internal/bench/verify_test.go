package bench

import (
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/millicode"
	"tnsr/internal/workloads"
)

// TestVerifySmokeAllWorkloads pins the translator to the structural
// contract the runtime enforces: every acceleration the Accelerator emits,
// for every workload at every level, must pass AccelSection.Verify at its
// space's code base — the same gate a corrupt artifact is degraded by. A
// failure here means the translator ships artifacts the runtime would
// refuse to execute.
func TestVerifySmokeAllWorkloads(t *testing.T) {
	levels := []codefile.AccelLevel{
		codefile.LevelStmtDebug, codefile.LevelDefault, codefile.LevelFast,
	}
	for _, name := range workloads.Names {
		w, err := workloads.Build(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, lvl := range levels {
			user, lib, err := core.AcceleratePair(w.User, w.Lib,
				core.Options{Level: lvl}, core.Accelerate)
			if err != nil {
				t.Fatal(err)
			}
			for space, f := range []*codefile.File{user, lib} {
				if f == nil {
					continue
				}
				if err := f.Accel.Verify(f, int(millicode.CodeBase(uint8(space)))); err != nil {
					t.Errorf("%s space %d at %v: %v", name, space, lvl, err)
				}
			}
		}
	}
}
