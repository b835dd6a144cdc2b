package xrun

import (
	"sync"
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/obs"
	"tnsr/internal/pgo"
	"tnsr/internal/risc"
	"tnsr/internal/workloads"
)

// TestSharedCodefileManyRunners pins the fleet's immutability contract:
// one accelerated codefile image backs 64 concurrent runners (each with
// private interpreter, simulator, recorder and capture state) and every
// concurrent run is observably identical to a serial run over the same
// shared image. Under -race this is the regression net for any future
// lazy-mutation creeping into the shared structures (the PMap inverse
// cache was exactly such a case; it is now sealed at translation time).
func TestSharedCodefileManyRunners(t *testing.T) {
	w := workloads.MustBuild("et1", 2)
	user, lib, err := core.AcceleratePair(w.User, w.Lib,
		core.Options{Level: codefile.LevelDefault}, core.Accelerate)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		console  string
		exit     uint16
		trap     int
		halted   bool
		riscIn   int64
		interpIn int64
	}
	runOne := func() outcome {
		r, err := New(user, lib, risc.DefaultConfig())
		if err != nil {
			t.Error(err)
			return outcome{}
		}
		rec := obs.NewRecorder()
		r.Observe(rec)
		cap := pgo.NewCapture()
		r.Capture(cap)
		if err := r.Run(50_000_000); err != nil {
			t.Error(err)
			return outcome{}
		}
		// Exercise the shared PMap's read paths from this goroutine too:
		// Lookup and Inverse must stay write-free on a sealed map.
		if pm := &user.Accel.PMap; pm.Len() > 0 {
			for a := 0; a < pm.Len(); a += 7 {
				if idx, _, ok := pm.Lookup(uint16(a)); ok {
					pm.Inverse(idx)
				}
			}
		}
		rep := r.Report(rec)
		return outcome{
			console: r.Console(), exit: r.ExitStatus, trap: r.Trap,
			halted: r.Halted, riscIn: rep.Modes.RISCInstrs,
			interpIn: rep.Modes.InterpInstrs,
		}
	}

	want := runOne() // serial baseline over the very same shared image
	if !want.halted || want.riscIn == 0 {
		t.Fatalf("baseline did not run translated: %+v", want)
	}

	const runners = 64
	got := make([]outcome, runners)
	var wg sync.WaitGroup
	for i := 0; i < runners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = runOne()
		}(i)
	}
	wg.Wait()
	for i, g := range got {
		if g != want {
			t.Fatalf("runner %d diverged from serial baseline:\n got %+v\nwant %+v", i, g, want)
		}
	}
}

// TestSharedCodefileConcurrentAdaptive drives whole adaptive cycles (which
// clone before translating) concurrently against one source image, pinning
// that the pre-translation files are safe to share too.
func TestSharedCodefileConcurrentAdaptive(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive fan-out skipped in -short mode")
	}
	w := workloads.MustBuild("et1", 2)
	const runners = 8
	outcomes := make([]*Outcome, runners)
	var wg sync.WaitGroup
	for i := 0; i < runners; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := RunAdaptive(w.User, w.Lib, AdaptiveOptions{
				Budget: 50_000_000, Config: risc.DefaultConfig()})
			if err != nil {
				t.Error(err)
				return
			}
			outcomes[i] = res.Second.Outcome()
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return // a cycle failed, and said why
	}
	for i := 1; i < runners; i++ {
		if err := outcomes[0].Check(outcomes[i]); err != nil {
			t.Fatalf("cycle %d diverged: %v", i, err)
		}
	}
}
