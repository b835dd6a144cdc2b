package xrun_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"tnsr/internal/backend"
	"tnsr/internal/chaos"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/millicode"
	"tnsr/internal/obs"
	"tnsr/internal/risc"
	"tnsr/internal/tnsgen"
	"tnsr/internal/workloads"
	"tnsr/internal/xrun"
)

// An observed run counts its RISC instructions per code word and folds
// the counts into the recorder when Run returns (DESIGN.md §9). These
// tests hold that fold to the per-step reference, RISCStep on every
// instruction: each configuration runs once each way, and the two obs
// reports must be the same bytes.

// reportJSON renders the runner's report without the translation phase
// timings, the one host-clock field.
func reportJSON(t *testing.T, r *xrun.Runner, rec *obs.Recorder) []byte {
	t.Helper()
	rep := r.Report(rec)
	rep.Phases = nil
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runBothWays runs a fresh runner of img per mode, observed through the
// per-step reference and through the count slots, and fails t unless the
// two reports are byte-identical. watch, when non-nil, also sees every
// instruction of the reference run. It returns the count-slot runner.
func runBothWays(t *testing.T, img *xrun.Image, budget int64, watch func(pc uint32)) *xrun.Runner {
	t.Helper()
	var reports [2][]byte
	var r *xrun.Runner
	for i, eachStep := range []bool{true, false} {
		r = img.NewRunner()
		rec := obs.NewRecorder()
		if eachStep {
			xrun.ObserveEachStep(r, rec)
			if step := r.Sim.OnInstr; watch != nil {
				r.Sim.OnInstr = func(pc uint32) { watch(pc); step(pc) }
			}
		} else {
			r.Observe(rec)
		}
		if err := r.Run(budget); err != nil {
			t.Fatalf("run (per-step reference %v): %v", eachStep, err)
		}
		if err := xrun.CheckAccounting(r, rec); err != nil {
			t.Errorf("per-step reference %v: %v", eachStep, err)
		}
		reports[i] = reportJSON(t, r, rec)
		r.Release()
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Errorf("the folded counts report\n%s\nthe per-step reference reports\n%s", reports[1], reports[0])
	}
	return r
}

func TestCountsMatchStepsWorkloads(t *testing.T) {
	for _, be := range []string{"mips", "ob0"} {
		for _, name := range workloads.Names {
			for _, lvl := range []codefile.AccelLevel{codefile.LevelStmtDebug,
				codefile.LevelDefault, codefile.LevelFast} {
				t.Run(fmt.Sprintf("%s/%s/%v", be, name, lvl), func(t *testing.T) {
					t.Parallel()
					b, ok := backend.ByName(be)
					if !ok {
						t.Fatalf("backend %q not registered", be)
					}
					w, err := workloads.Build(name, 2)
					if err != nil {
						t.Fatal(err)
					}
					user, lib, err := core.AcceleratePair(w.User, w.Lib,
						core.Options{Level: lvl, Workers: 1, Backend: b}, core.Accelerate)
					if err != nil {
						t.Fatal(err)
					}
					img, err := xrun.NewImage(user, lib, risc.DefaultConfig())
					if err != nil {
						t.Fatal(err)
					}
					if r := runBothWays(t, img, 200_000_000, nil); r.Sim.Instrs == 0 {
						t.Fatal("no RISC instructions executed")
					}
				})
			}
		}
	}
}

// TestCountsMatchStepsScenarioCorpus runs the tnsgen scenario corpus
// through the differential oracle on mips and ob0, once with every
// observed runner on the per-step reference and once on the count slots,
// and compares the reports of the passes one by one.
func TestCountsMatchStepsScenarioCorpus(t *testing.T) {
	scenarios, err := tnsgen.LoadCorpus("../tnsgen/corpus")
	if err != nil {
		t.Fatal(err)
	}
	o := oracleOptions(t)
	var reports [2][][]byte
	for i, eachStep := range []bool{true, false} {
		seen := xrun.TraceObserve(t, eachStep)
		for _, s := range scenarios {
			if _, err := tnsgen.RunOracle(s.Subject(), o); err != nil {
				t.Errorf("%s: %v", s.Name, err)
			}
		}
		for _, run := range seen.Runs() {
			reports[i] = append(reports[i], reportJSON(t, run.R, run.Rec))
		}
	}
	if len(reports[0]) == 0 || len(reports[0]) != len(reports[1]) {
		t.Fatalf("%d runners observed on the per-step reference, %d on the count slots",
			len(reports[0]), len(reports[1]))
	}
	for i := range reports[0] {
		if !bytes.Equal(reports[0][i], reports[1][i]) {
			t.Errorf("pass %d: the folded counts report\n%s\nthe per-step reference reports\n%s",
				i, reports[1][i], reports[0][i])
		}
	}
	t.Logf("%d observed passes compared", len(reports[0]))
}

// TestCountsMatchStepsChaos runs chaos mutants of dhry16 and et1, every
// operator on both, each way.
func TestCountsMatchStepsChaos(t *testing.T) {
	const perOp = 3
	ran := 0
	for _, name := range []string{"dhry16", "et1"} {
		ref, err := chaos.NewReference(name, chaos.DefaultIterations, chaos.DefaultBudget)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < perOp*int(chaos.NumOps); i++ {
			op := chaos.Op(i % int(chaos.NumOps))
			mu, err := ref.Mutate(rand.New(rand.NewSource(int64(i)*7919+1)), op)
			if err != nil {
				t.Fatalf("%s mutant %d (%s): %v", name, i, op, err)
			}
			user, lib, ok := readMutant(ref, mu)
			if !ok {
				continue
			}
			img, err := xrun.NewImage(user, lib, risc.DefaultConfig())
			if err != nil {
				continue
			}
			t.Run(fmt.Sprintf("%s/%d-%s-%s", name, i, op, mu.Target), func(t *testing.T) {
				runBothWays(t, img, chaos.DefaultBudget, nil)
				ran++
			})
		}
	}
	if ran == 0 {
		t.Error("no mutant ran")
	}
	t.Logf("%d mutants ran both ways", ran)
}

// TestCountsMatchStepsGapWords damages et1's main translation into a jump to
// a word of a page no segment stored, in the gap after the millicode and
// in the gap after the user translation, on both targets: on mips the gap
// words execute as nops up to the next segment, on ob0 the first traps.
// The reports must agree however the damaged run ends.
func TestCountsMatchStepsGapWords(t *testing.T) {
	for _, be := range []string{"mips", "ob0"} {
		for _, gap := range []struct {
			name string
			at   uint32
		}{
			{"after-millicode", millicode.UserCodeBase - 3*backend.CodePageWords + 7},
			{"after-user", millicode.LibCodeBase - 2*backend.CodePageWords + 9},
		} {
			t.Run(be+"/"+gap.name, func(t *testing.T) {
				b, _ := backend.ByName(be)
				w := workloads.MustBuild("et1", 2)
				user, lib, err := core.AcceleratePair(w.User, w.Lib,
					core.Options{Level: codefile.LevelDefault, Workers: 1, Backend: b}, core.Accelerate)
				if err != nil {
					t.Fatal(err)
				}
				main := user.Procs[user.MainPEP]
				idx, _, ok := user.Accel.PMap.Lookup(main.Entry)
				if !ok {
					t.Fatal("main's entry is not mapped")
				}
				enc, err := b.Encode([]backend.Inst{{Op: backend.J, JTarget: gap.at, JLbl: backend.NoLabel},
					{Op: backend.SLL}}, func(backend.Label) (int32, error) { return 0, nil }, uint32(idx))
				if err != nil {
					t.Fatal(err)
				}
				copy(user.Accel.RISC[idx-millicode.UserCodeBase:], enc.Code)
				img, err := xrun.NewImage(user, lib, risc.DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				stored := storedPages(img)
				if stored[gap.at/backend.CodePageWords] {
					t.Fatalf("word %d is on a stored page", gap.at)
				}
				var gapWords int64
				r := runBothWays(t, img, 200_000_000, func(pc uint32) {
					if !stored[pc/backend.CodePageWords] {
						gapWords++
					}
				})
				if gapWords == 0 {
					t.Error("no gap word executed")
				}
				t.Logf("%d gap words executed, %d interludes", gapWords, r.Interludes)
			})
		}
	}
}

// readMutant parses a mutant's codefiles the way chaos.Reference.Check
// does; ok is false for a mutant the parser rejects.
func readMutant(ref *chaos.Reference, mu *chaos.Mutant) (user, lib *codefile.File, ok bool) {
	read := func(mutated, pristine []byte) (*codefile.File, bool) {
		if mutated == nil {
			mutated = pristine
		}
		if mutated == nil {
			return nil, true
		}
		f, err := codefile.Read(bytes.NewReader(mutated))
		return f, err == nil
	}
	user, uok := read(mu.User, ref.UserRaw)
	lib, lok := read(mu.Lib, ref.LibRaw)
	return user, lib, uok && lok && user != nil
}

// storedPages marks the code pages of img that hold millicode or a
// translation the image loaded: every other page is a gap.
func storedPages(img *xrun.Image) []bool {
	r := img.NewRunner()
	defer r.Release()
	milli, _ := r.Backend().Millicode()
	stored := make([]bool, (img.Code().Len()+backend.CodePageWords-1)/backend.CodePageWords)
	mark := func(base, n int) {
		for w := base; w < base+n; w += backend.CodePageWords {
			stored[w/backend.CodePageWords] = true
		}
		if n > 0 {
			stored[(base+n-1)/backend.CodePageWords] = true
		}
	}
	mark(0, len(milli))
	for sp := range 2 {
		if a := r.LoadedAccel(interp.Space(sp)); a != nil {
			mark(int(millicode.CodeBase(uint8(sp))), len(a.RISC))
		}
	}
	return stored
}
