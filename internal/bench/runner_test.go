package bench

import (
	"fmt"
	"math/rand"
	"testing"

	"tnsr/internal/backend"
	"tnsr/internal/backend/mips"
	"tnsr/internal/backend/ob0"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/fleet"
	"tnsr/internal/obs"
	"tnsr/internal/tnsgen"
	"tnsr/internal/workloads"
	"tnsr/internal/xrun"
)

// BenchmarkRunnerNew prices getting one observed runner ready to run et1
// (user and library at Default, the fleet's shape): "shared" makes it from
// an image built once, the way fleet machines do; "recycled" does the
// same and then releases the runner, so the next op takes its simulator
// memory back from the pool, the way fleet machines and oracle passes do;
// "private" builds the image too (xrun.New), the way a one-off run does.
// Each op is the runner plus Observe (plus Release); B/op is what a runner
// costs in memory.
func BenchmarkRunnerNew(b *testing.B) {
	w := workloads.MustBuild("et1", 30)
	user, lib, err := core.AcceleratePair(w.User, w.Lib,
		core.Options{Level: codefile.LevelDefault}, core.Accelerate)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("shared", func(b *testing.B) {
		img, err := xrun.NewImage(user, lib, CycloneRConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			img.NewRunner().Observe(obs.NewRecorder())
		}
	})
	b.Run("recycled", func(b *testing.B) {
		img, err := xrun.NewImage(user, lib, CycloneRConfig())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r := img.NewRunner()
			r.Observe(obs.NewRecorder())
			r.Release()
		}
	})
	b.Run("private", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := xrun.New(user, lib, CycloneRConfig())
			if err != nil {
				b.Fatal(err)
			}
			r.Observe(obs.NewRecorder())
		}
	})
}

// BenchmarkOracle prices the generated-program oracle the way a campaign
// drives it: each op is one tnsgen.RunOracle (the interpreter reference,
// then every level on mips and ob0, with Workers 1) of the next of the
// first ten programs an unsteered campaign from seed 1 draws, every fifth
// a user+library pair. Each op assembles its program once, translates the
// library once per (backend, level) and the user file once per
// configuration, and builds one image per configuration; its passes
// release their runners, so most take recycled simulator memory.
func BenchmarkOracle(b *testing.B) {
	o := tnsgen.DefaultOracle()
	o.Workers = 1
	o.Backends = []backend.Backend{mips.Default, ob0.Default}
	var subjects []*tnsgen.Subject
	for i := 0; i < 10; i++ {
		seed := int64(1 + i)
		cfg := tnsgen.RandomConfig(rand.New(rand.NewSource(seed ^ 0x5DEECE66D)))
		if i%5 == 4 {
			cfg = tnsgen.Config{Library: true}
		}
		subjects = append(subjects, tnsgen.Generate(fmt.Sprintf("gen%d", seed), seed, cfg).Subject())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tnsgen.RunOracle(subjects[i%len(subjects)], o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetRun prices one whole fleet.Run: 16 machines, each running
// 30 ET1 transactions on the shared mips image at Default, the shape of
// perfbench's fleet-et1. Each op draws its arrival schedules from its own
// seed; the simulated work is the same every op.
func BenchmarkFleetRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := fleet.Run(fleet.Config{Machines: 16, TxnsPerMachine: 30,
			Level: codefile.LevelDefault, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
