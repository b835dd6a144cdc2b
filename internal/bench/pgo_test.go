package bench

import (
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/interp"
	"tnsr/internal/obs"
	"tnsr/internal/pgo"
	"tnsr/internal/workloads"
	"tnsr/internal/xrun"
)

// TestRunAdaptiveAdversarial is the PGO acceptance test: on the adversarial
// program (wrong XCAL result-size guesses, no hints) the observe ->
// retranslate -> rerun cycle must drive rp-conflict escapes to ~zero and
// measurably shrink interpreter residency, while both passes stay
// observationally identical (RunAdaptive itself errors on divergence).
func TestRunAdaptiveAdversarial(t *testing.T) {
	res, err := AdaptiveAdversarial(200_000_000, xrun.AdaptiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Second.Halted {
		t.Fatal("adversarial program did not halt")
	}
	f1, f2 := res.InterpFractions()
	c1 := res.FirstObs.Escapes[obs.EscapeRPConflict]
	c2 := res.SecondObs.Escapes[obs.EscapeRPConflict]
	t.Logf("pass 1: interp %.4f%%, rp-conflict escapes %d", 100*f1, c1)
	t.Logf("pass 2: interp %.4f%%, rp-conflict escapes %d", 100*f2, c2)
	if c1 == 0 {
		t.Error("pass 1 should hit rp-conflict escapes (that is what the profile feeds on)")
	}
	if c2 != 0 {
		t.Errorf("pass 2 still hit %d rp-conflict escapes; profile should have corrected the guesses", c2)
	}
	if f2 >= f1 {
		t.Errorf("profiled residency %.4f%% should be below unprofiled %.4f%%", 100*f2, 100*f1)
	}
	// The profile must carry the facts the retranslation fed on.
	if err := pgo.Validate(res.Profile); err != nil {
		t.Fatalf("captured profile invalid: %v", err)
	}
	sp := res.Profile.Space("user")
	if sp == nil || len(sp.RPSites) == 0 {
		t.Error("profile should record the observed RP at the escaping return points")
	}
	if sp != nil && len(sp.Procs) == 0 {
		t.Error("profile should record per-procedure residency weights")
	}
}

// TestCaptureWorkloadRoundTrip checks the tnsprof -emit-profile path: capture
// a real workload, serialize, reparse, and confirm the bytes are stable and
// the profile carries residency for the space that actually ran.
func TestCaptureWorkloadRoundTrip(t *testing.T) {
	prof, rep, err := CaptureWorkload("dhry16", codefile.LevelDefault, 5, xrun.AdaptiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Workload != "dhry16" || prof.Workload != "dhry16" {
		t.Error("workload name should be stamped on both report and profile")
	}
	j, err := prof.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := pgo.ParseProfile(j)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	j2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(j) != string(j2) {
		t.Error("profile JSON is not a fixed point under parse/serialize")
	}
}

// BenchmarkAdversarialAdaptive prices the full two-pass cycle on the
// adversarial program (the workload the subsystem exists for).
func BenchmarkAdversarialAdaptive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := AdaptiveAdversarial(200_000_000, xrun.AdaptiveOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if res.SecondObs.Escapes[obs.EscapeRPConflict] != 0 {
			b.Fatal("pass 2 regressed: rp-conflict escapes nonzero")
		}
	}
}

// benchInterpLoopCaptured mirrors benchInterpLoop with a PGO capture
// attached, bounding the cost of the capture hooks the same way the
// telemetry benchmarks bound the Obs hooks (DESIGN.md §9 contract: a nil
// sink is one pointer compare per site).
func benchInterpLoopCaptured(b *testing.B) {
	w := workloads.MustBuild("dhry16", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := interp.New(w.User, w.Lib)
		c := pgo.NewCapture()
		c.AttachFiles(w.User, w.Lib)
		m.PGO = c
		b.StartTimer()
		if err := m.Run(2_000_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpHotLoopCaptured runs the overhead_test hot loop with a
// profile capture attached; compare against BenchmarkInterpHotLoop (nil
// hooks) and BenchmarkInterpHotLoopObserved (telemetry recorder).
func BenchmarkInterpHotLoopCaptured(b *testing.B) { benchInterpLoopCaptured(b) }
