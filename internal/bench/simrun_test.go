package bench

import (
	"testing"

	"tnsr/internal/backend"
	"tnsr/internal/backend/mips"
	"tnsr/internal/backend/ob0"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/obs"
	"tnsr/internal/workloads"
	"tnsr/internal/xrun"
)

// BenchmarkSimRun isolates the RISC step loop on each backend: dhry16 (40
// iterations) translated at Default, one shared image, and per op one
// fresh runner's Run. Only Run is timed; building the runner (its
// interpreter, and its simulator memory) is not. It reports ns per
// simulated RISC instruction.
//
// The plain legs run with no recorder attached, and never release their
// runners, so every memory is freshly allocated. The "-observed" legs
// attach a recorder the way fleet machines and oracle passes do, so Run
// counts each instruction in its word's count slot and folds the counts
// into the recorder before it returns; each op releases its runner, so
// the next takes the memory and the count slots back from the pool.
// perfbench's risc.ns_per_instr is the observed figure of traced runs.
func BenchmarkSimRun(b *testing.B) {
	for _, be := range []backend.Backend{mips.Default, ob0.Default} {
		for _, observed := range []bool{false, true} {
			name := be.Name()
			if observed {
				name += "-observed"
			}
			b.Run(name, func(b *testing.B) {
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
					if observed {
						r.Observe(obs.NewRecorder())
					}
					b.StartTimer()
					if err := r.Run(2_000_000_000); err != nil {
						b.Fatal(err)
					}
					instrs += r.Sim.Instrs
					if observed {
						b.StopTimer()
						r.Release()
						b.StartTimer()
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(instrs), "ns/instr")
			})
		}
	}
}
