package xrun

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/risc"
	"tnsr/internal/tns"
)

// The recycled-memory invariant (DESIGN.md §6): a simulator memory that
// NewRunner takes from the pool reads exactly like a fresh one. Every test
// here installs CheckRecycled, which fails on the first nonzero byte in a
// memory NewRunner takes, and drives one of the ways a run writes memory
// into Release and a next runner.

// releaseAndTakeNext releases r and makes a next runner of the same image,
// which takes r's memory back whenever the pool hands the last memory put
// to the next get on the same goroutine.
func releaseAndTakeNext(r *Runner) *Runner {
	img := r.Image()
	r.Release()
	return img.NewRunner()
}

// TestRecycleStrayStoreDropsMemory: damaged translated code stores above
// the runtime tables, where no page set records it, and then breaks with
// an unexpected code. The episode rolls back and the run completes
// interpreted. The store set DirtyBeyond, so Release drops the memory
// rather than recycle it, and the next runner reads zero there.
func TestRecycleStrayStoreDropsMemory(t *testing.T) {
	checks := CheckRecycled(t)
	const stray = 0x30000
	r := selectiveAddup(t,
		risc.EncImm(risc.LUI, risc.RegV, 0, stray>>16),
		risc.EncMem(risc.SW, risc.RegV, risc.RegV, 0),
		risc.EncBreak(7))
	r.QuarantineThreshold = 1
	if stray < r.Sim.ProtectedHi {
		t.Fatalf("the stray address %#x lies inside the tables [%#x, %#x)",
			stray, r.Sim.ProtectedLo, r.Sim.ProtectedHi)
	}
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if r.Console() != "15" || len(r.RollbackLog) != 1 {
		t.Fatalf("console %q after %d rollbacks, want 15 after 1", r.Console(), len(r.RollbackLog))
	}
	if !r.Sim.DirtyBeyond || r.Sim.ReadHalf(stray) != stray>>16 {
		t.Fatalf("the episode's store above the tables: memory %#04x, DirtyBeyond %v; want %#04x, true",
			r.Sim.ReadHalf(stray), r.Sim.DirtyBeyond, stray>>16)
	}
	next := releaseAndTakeNext(r)
	if got := next.Sim.ReadHalf(stray); got != 0 {
		t.Errorf("the next runner reads %#04x at the stray address, want 0", got)
	}
	if checks.Taken != 2 {
		t.Errorf("%d memories checked, want 2", checks.Taken)
	}
}

// TestRecycleUnsyncedRollback: an episode writes two pages and breaks with
// an unexpected code. With a quarantine threshold of 1 its procedure is
// demoted at once, so the interpreter finishes the run and no sync ever
// restores those pages: they are still in the simulator's page set when
// the run ends, and only Release's own union of that set gets them
// cleared.
func TestRecycleUnsyncedRollback(t *testing.T) {
	checks := CheckRecycled(t)
	r := selectiveAddup(t, append(episodeWrites(), risc.EncBreak(7))...)
	r.QuarantineThreshold = 1
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if r.Console() != "15" || len(r.RollbackLog) != 1 {
		t.Fatalf("console %q after %d rollbacks, want 15 after 1", r.Console(), len(r.RollbackLog))
	}
	if !r.Sim.Dirty.Has(5000/tns.PageWords) || r.Sim.ReadHalf(2*5000) != 0x7777 {
		t.Fatalf("word 5000 = %#04x, page in the simulator's set %v; want the abandoned write still pending",
			r.Sim.ReadHalf(2*5000), r.Sim.Dirty.Has(5000/tns.PageWords))
	}
	next := releaseAndTakeNext(r)
	if got := next.Sim.ReadHalf(2 * 5000); got != 0 {
		t.Errorf("the next runner reads %#04x at word 5000, want 0", got)
	}
	if err := next.Run(10_000_000); err != nil || next.Console() != "15" {
		t.Errorf("the next runner: console %q, err %v", next.Console(), err)
	}
	if checks.Taken != 2 {
		t.Errorf("%d memories checked, want 2", checks.Taken)
	}
}

// TestRecycleAdoptInterpreter: a runner that adopts a running interpreter
// mirrors every page, so Release clears every page.
func TestRecycleAdoptInterpreter(t *testing.T) {
	checks := CheckRecycled(t)
	f := buildDyn(t, 30)
	m := interp.New(f, nil)
	for i := 0; i < 20_000; i++ {
		m.Step()
	}
	m.Dirty = tns.PageSet{}
	if err := core.Accelerate(f, core.Options{Level: codefile.LevelDefault}); err != nil {
		t.Fatal(err)
	}
	img, err := NewImage(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := img.NewRunner()
	r.AdoptInterpreter(m)
	if err := r.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	if r.written.Len() != tns.Pages {
		t.Errorf("the write record holds %d pages after AdoptInterpreter, want all %d",
			r.written.Len(), tns.Pages)
	}
	releaseAndTakeNext(r)
	if checks.Taken != 2 {
		t.Errorf("%d memories checked, want 2", checks.Taken)
	}
}

// mustPanic runs f and fails t unless it panics with a message containing
// want.
func mustPanic(t *testing.T, what, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if p := recover(); p == nil {
			t.Errorf("%s after Release did not panic", what)
		} else if !strings.Contains(fmt.Sprint(p), want) {
			t.Errorf("%s after Release panicked with %v, want %q", what, p, want)
		}
	}()
	f()
}

// TestRecycleReleaseTwiceAndUseAfter: a second Release does nothing; the
// results outlive the memory; running the runner again, or reading its
// simulator memory, panics instead of reaching the memory a next runner
// took.
func TestRecycleReleaseTwiceAndUseAfter(t *testing.T) {
	CheckRecycled(t)
	r := selectiveAddup(t)
	img := r.Image()
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	cycles, _, _ := r.Cycles()
	r.Release()
	r.Release()
	if r.Sim.Mem != nil {
		t.Fatal("Release left Sim.Mem set")
	}
	if got, _, _ := r.Cycles(); r.Console() != "15" || got != cycles || !r.Halted {
		t.Errorf("after Release: console %q, cycles %v (want 15, %v)", r.Console(), got, cycles)
	}
	next := img.NewRunner() // may take r's memory
	next.Sim.WriteHalf(2*7, 0x4242)
	mustPanic(t, "Run", "Run after Release", func() { _ = r.Run(10_000_000) })
	mustPanic(t, "Continue", "Run after Release", func() { _ = r.Continue(10_000_000) })
	mustPanic(t, "ReadHalf", "index out of range", func() { r.Sim.ReadHalf(2 * 7) })
	if err := next.Run(10_000_000); err != nil || next.Console() != "15" {
		t.Errorf("the next runner: console %q, err %v", next.Console(), err)
	}
}

// TestRecycleConcurrentRunners: 64 goroutines each run two et1 runners of
// one image back to back, releasing each, so memories pass between
// goroutines through the pool; every run equals a private image's on both
// backends.
func TestRecycleConcurrentRunners(t *testing.T) {
	for _, be := range []string{"mips", "ob0"} {
		t.Run(be, func(t *testing.T) {
			checks := CheckRecycled(t)
			user, lib, want := et1Accelerated(t, be, be)
			cfg := risc.DefaultConfig()
			r, err := New(user, lib, cfg)
			if err != nil {
				t.Fatal(err)
			}
			private := observedRun(t, r)
			if private.console != want || private.instrs == 0 {
				t.Fatalf("private run: console %q after %d RISC instructions, want %q translated",
					private.console, private.instrs, want)
			}
			r.Release()

			img, err := NewImage(user, lib, cfg)
			if err != nil {
				t.Fatal(err)
			}
			const runners, rounds = 64, 2
			got := make([]runOutcome, runners*rounds)
			var wg sync.WaitGroup
			for i := 0; i < runners; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					for k := 0; k < rounds; k++ {
						r := img.NewRunner()
						got[i*rounds+k] = observedRun(t, r)
						r.Release()
					}
				}(i)
			}
			wg.Wait()
			for i, g := range got {
				if g != private {
					t.Fatalf("run %d differs from a private image's:\n got %+v\nwant %+v", i, g, private)
				}
			}
			if checks.Taken != 1+runners*rounds || checks.Recycled == 0 {
				t.Errorf("%d memories taken, %d recycled; want %d, some",
					checks.Taken, checks.Recycled, 1+runners*rounds)
			}
			t.Logf("%d memories taken, %d recycled", checks.Taken, checks.Recycled)
		})
	}
}
