package bench

import (
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/millicode"
	"tnsr/internal/obs"
	"tnsr/internal/workloads"
	"tnsr/internal/xrun"
)

// BenchmarkRunnerNew prices getting one observed runner ready to run et1
// (user and library at Default, the fleet's shape): "shared" makes it from
// an image built once, the way fleet machines do; "private" builds the
// image too (xrun.New), the way a one-off run does. Each op is the runner
// plus Observe; B/op is what a runner costs in memory.
func BenchmarkRunnerNew(b *testing.B) {
	w := workloads.MustBuild("et1", 30)
	if err := core.Accelerate(w.User, core.Options{Level: codefile.LevelDefault,
		LibSummaries: w.LibSummaries}); err != nil {
		b.Fatal(err)
	}
	if err := core.Accelerate(w.Lib, core.Options{Level: codefile.LevelDefault,
		CodeBase: millicode.LibCodeBase, Space: 1}); err != nil {
		b.Fatal(err)
	}
	b.Run("shared", func(b *testing.B) {
		img, err := xrun.NewImage(w.User, w.Lib, CycloneRConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			img.NewRunner().Observe(obs.NewRecorder())
		}
	})
	b.Run("private", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := xrun.New(w.User, w.Lib, CycloneRConfig())
			if err != nil {
				b.Fatal(err)
			}
			r.Observe(obs.NewRecorder())
		}
	})
}
