package bench

import (
	"testing"

	"tnsr/internal/core"
	"tnsr/internal/obs"
	"tnsr/internal/workloads"
)

func TestParallelPhaseTimings(t *testing.T) {
	w := workloads.MustBuild("tal", 1)
	rec := obs.NewRecorder()
	opts := core.Options{Workers: 4, Obs: rec}
	if err := core.Accelerate(w.User, opts); err != nil {
		t.Fatal(err)
	}
	rep := rec.Report()
	seen := map[string]bool{}
	for _, p := range rep.Phases {
		seen[p.Phase] = true
	}
	for _, want := range []string{"analyze", "rp", "liveness", "translate", "merge", "schedule", "finalize"} {
		if !seen[want] {
			t.Errorf("phase %q missing: %+v", want, rep.Phases)
		}
	}
	if err := obs.Validate(rep); err != nil {
		t.Fatal(err)
	}
}
