package bench

import (
	"testing"

	"tnsr/internal/backend"
	"tnsr/internal/backend/mips"
	"tnsr/internal/backend/ob0"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/workloads"
	"tnsr/internal/xrun"
)

// BenchmarkSimRun isolates the unobserved RISC step loop on each backend:
// dhry16 (40 iterations) translated at Default, one shared image, and per
// op one fresh runner's Run with no recorder attached. Only Run is timed;
// building the runner (its interpreter, and its simulator memory, which is
// never released here and so always freshly allocated) is not. It reports
// ns per simulated RISC instruction. BenchmarkMixedRunObserved runs with a
// recorder attached, and perfbench's risc.ns_per_instr exists only in
// traced runs.
func BenchmarkSimRun(b *testing.B) {
	for _, be := range []backend.Backend{mips.Default, ob0.Default} {
		b.Run(be.Name(), func(b *testing.B) {
			w := workloads.MustBuild("dhry16", 40)
			user, lib, err := core.AcceleratePair(w.User, w.Lib,
				core.Options{Level: codefile.LevelDefault, Backend: be}, core.Accelerate)
			if err != nil {
				b.Fatal(err)
			}
			img, err := xrun.NewImage(user, lib, CycloneRConfig())
			if err != nil {
				b.Fatal(err)
			}
			var instrs int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				r := img.NewRunner()
				b.StartTimer()
				if err := r.Run(2_000_000_000); err != nil {
					b.Fatal(err)
				}
				instrs += r.Sim.Instrs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
		})
	}
}
