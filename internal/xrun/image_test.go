package xrun

import (
	"sync"
	"testing"

	"tnsr/internal/backend"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/obs"
	"tnsr/internal/risc"
	"tnsr/internal/tnsasm"
)

// runOutcome is everything a run leaves behind that a shared image could
// leak into: output, simulated time, the pipeline counters and the
// report's bytes.
type runOutcome struct {
	console      string
	exit         uint16
	trap         int
	halted       bool
	cycles       int64
	instrs       int64
	loadStalls   int64
	mdStalls     int64
	icacheMisses int64
	dcacheMisses int64
	report       string
}

// observedRun runs r to completion with a recorder attached.
func observedRun(t testing.TB, r *Runner) runOutcome {
	rec := obs.NewRecorder()
	r.Observe(rec)
	if err := r.Run(100_000_000); err != nil {
		t.Error(err)
		return runOutcome{}
	}
	data, err := r.Report(rec).JSON()
	if err != nil {
		t.Error(err)
		return runOutcome{}
	}
	o := runOutcome{console: r.Console(), exit: r.ExitStatus, trap: r.Trap,
		halted: r.Halted, cycles: r.Sim.Cycles, instrs: r.Sim.Instrs, report: string(data)}
	if s, ok := r.BackendSim().(*risc.Sim); ok {
		o.loadStalls, o.mdStalls = s.LoadStalls, s.MDStalls
		o.icacheMisses, o.dcacheMisses = s.ICacheMisses, s.DCacheMisses
	}
	return o
}

// TestSharedImageManyRunners: 64 concurrent runners made from one image
// of et1 (user and library) each match a runner over a private image —
// simulated cycles and instructions, the R3000's stall and cache counters,
// and the report byte for byte — on both backends. Under -race this pins
// that nothing a runner does writes the image.
func TestSharedImageManyRunners(t *testing.T) {
	for _, be := range []string{"mips", "ob0"} {
		t.Run(be, func(t *testing.T) {
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
			if be == "mips" && (private.icacheMisses == 0 || private.loadStalls == 0) {
				t.Fatalf("private run shows no pipeline activity: %+v", private)
			}

			img, err := NewImage(user, lib, cfg)
			if err != nil {
				t.Fatal(err)
			}
			const runners = 64
			got := make([]runOutcome, runners)
			var wg sync.WaitGroup
			for i := range got {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = observedRun(t, img.NewRunner())
				}(i)
			}
			wg.Wait()
			for i, g := range got {
				if g != private {
					t.Fatalf("runner %d of the shared image differs from a private image's:\n got %+v\nwant %+v",
						i, g, private)
				}
			}
		})
	}
}

// TestSharedImageReuse: a runner that arms breakpoints, writes data
// through SetDataWord and is rolled back leaves its image as it found it —
// the next runner from the same image still equals one over a private
// image. The translation of addup is damaged (an undecodable first word,
// on both backends), so every entry into it traps and rolls back.
func TestSharedImageReuse(t *testing.T) {
	for _, name := range []string{"mips", "ob0"} {
		t.Run(name, func(t *testing.T) {
			be, _ := backend.ByName(name)
			f := tnsasm.MustAssemble("mix", mixProg)
			if err := core.Accelerate(f, core.Options{Level: codefile.LevelDefault, Backend: be,
				SelectProcs: map[string]bool{"addup": true}}); err != nil {
				t.Fatal(err)
			}
			patchEntry(t, f, "addup", 0xFFFFFFFF)
			img, err := NewImage(f, nil, risc.Config{})
			if err != nil {
				t.Fatal(err)
			}

			first := img.NewRunner()
			addr := f.Procs[f.ProcByName("addup")].Entry
			if !first.ArmBreak(0, addr) {
				t.Fatal("addup's entry did not arm on the RISC side")
			}
			hits := 0
			for !first.Halted && hits < 100 {
				if err := first.Continue(10_000_000); err != nil {
					t.Fatal(err)
				}
				if first.BPHit {
					hits++
					first.SetDataWord(5000, 0x7777)
					first.SetDataWord(6, uint16(hits))
				}
			}
			if !first.Halted || hits == 0 || len(first.RollbackLog) == 0 {
				t.Fatalf("halted=%v after %d breakpoint hits and %d rollbacks; want all three",
					first.Halted, hits, len(first.RollbackLog))
			}

			next := img.NewRunner()
			if len(next.Sim.Breakpoints) != 0 || len(next.TNSBreaks) != 0 ||
				next.Int.Mem[5000] != 0 || next.Sim.ReadHalf(2*5000) != 0 {
				t.Fatalf("a fresh runner inherited state: %d RISC and %d TNS breakpoints, word 5000 = %#x/%#x",
					len(next.Sim.Breakpoints), len(next.TNSBreaks), next.Int.Mem[5000], next.Sim.ReadHalf(2*5000))
			}
			got := observedRun(t, next)
			r, err := New(f, nil, risc.Config{})
			if err != nil {
				t.Fatal(err)
			}
			if want := observedRun(t, r); got != want {
				t.Errorf("reused image's runner differs from a private image's:\n got %+v\nwant %+v", got, want)
			}
			if got.console != "15" {
				t.Errorf("console %q, want 15", got.console)
			}
		})
	}
}

// TestNewImageRejectsMainPEPOutOfRange: a codefile built in memory (so
// codefile.Read never checked it) whose main entry names no procedure is
// refused with an error, not a panic in the interpreter's set-up.
func TestNewImageRejectsMainPEPOutOfRange(t *testing.T) {
	f := &codefile.File{Name: "pep7", Code: []uint16{0}, MainPEP: 7,
		Procs: []codefile.Proc{{Name: "main", Entry: 0}}}
	if r, err := New(f, nil, risc.Config{}); err == nil || r != nil {
		t.Fatalf("New = %v, %v; want an error naming the main PEP", r, err)
	}
}
