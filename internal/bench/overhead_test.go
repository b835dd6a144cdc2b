package bench

import (
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/interp"
	"tnsr/internal/millicode"
	"tnsr/internal/obs"
	"tnsr/internal/workloads"
)

// The telemetry overhead contract (DESIGN.md §9): a nil sink costs one
// pointer comparison per hook site. These benchmarks pin the interpreter
// hot loop both ways so a regression in the unobserved baseline is visible
// next to the price of observation.

func benchInterpLoop(b *testing.B, observe bool) {
	w := workloads.MustBuild("dhry16", 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := interp.New(w.User, w.Lib)
		if observe {
			rec := obs.NewRecorder()
			rec.Attach(obs.NewAttribution(w.User, w.Lib, [2]*codefile.AccelSection{}, 0,
				[2]int{millicode.UserCodeBase, millicode.LibCodeBase}))
			m.Obs = rec
		}
		b.StartTimer()
		if err := m.Run(2_000_000_000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInterpHotLoop is the unobserved baseline (Obs == nil).
func BenchmarkInterpHotLoop(b *testing.B) { benchInterpLoop(b, false) }

// BenchmarkInterpHotLoopObserved runs the same work with a recorder
// attached, bounding what observation costs when it is wanted.
func BenchmarkInterpHotLoopObserved(b *testing.B) { benchInterpLoop(b, true) }

// BenchmarkMixedRunObserved prices the full observed mixed-mode pipeline
// (translate with phase timings + run with all hooks live).
func BenchmarkMixedRunObserved(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ProfileWorkload("dhry16", 0, 1); err != nil {
			b.Fatal(err)
		}
	}
}
