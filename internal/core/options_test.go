package core_test

import (
	"reflect"
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/millicode"
	"tnsr/internal/risc"
	"tnsr/internal/tnsasm"
	"tnsr/internal/xrun"
)

// hintProg calls a two-word-result procedure through XCAL with no SETRP:
// the Accelerator must guess (wrongly: a STOR follows), emitting a
// run-time check — unless a hint supplies the true size.
const hintProg = `
GLOBALS 8
MAIN main
PROC two ARGS 0
  LDI 4
  LDI 2
  EXIT 0
ENDPROC
PROC main
  LDPL 0
  XCAL
  STOR G+0
  STOR G+1
  EXIT 0
ENDPROC
`

func xcalAddr(f *codefile.File) uint16 {
	for a := range f.Code {
		if f.Code[a] == 0x0017 { // EncStack(OpXCAL) = major 0, sub 0, op 23
			return uint16(a)
		}
	}
	return 0
}

func TestXCALHintSuppressesCheckAndFallback(t *testing.T) {
	// Without hints: a check is emitted and trips at run time.
	f1 := tnsasm.MustAssemble("h", hintProg)
	if err := core.Accelerate(f1, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if f1.Accel.Stats.RPChecks == 0 {
		t.Fatal("expected an RP check without hints")
	}
	r1, _ := xrun.New(f1, nil, risc.Config{})
	if err := r1.Run(100000); err != nil {
		t.Fatal(err)
	}
	if r1.Interludes == 0 {
		t.Error("wrong guess should have caused an interpreter interlude")
	}
	if r1.Int.Mem[0] != 2 || r1.Int.Mem[1] != 4 {
		t.Errorf("results wrong despite fallback: %v", r1.Int.Mem[:2])
	}

	// With the hint: no check, no fallback, same results.
	f2 := tnsasm.MustAssemble("h", hintProg)
	opts := core.DefaultOptions()
	opts.Hints.XCALResultSize = map[uint16]int8{xcalAddr(f2): 2}
	if err := core.Accelerate(f2, opts); err != nil {
		t.Fatal(err)
	}
	if f2.Accel.Stats.RPChecks != 0 {
		t.Errorf("hinted translation still emitted %d RP checks", f2.Accel.Stats.RPChecks)
	}
	r2, _ := xrun.New(f2, nil, risc.Config{})
	if err := r2.Run(100000); err != nil {
		t.Fatal(err)
	}
	if r2.Interludes != 0 {
		t.Errorf("hinted translation fell back %d times", r2.Interludes)
	}
	if r2.Int.Mem[0] != 2 || r2.Int.Mem[1] != 4 {
		t.Errorf("hinted results: %v", r2.Int.Mem[:2])
	}
}

// TestReturnValSizeHint: the by-name hint (the paper's "7 of 199 programs"
// knob) overrides a summaryless procedure.
func TestReturnValSizeHint(t *testing.T) {
	src := `
GLOBALS 8
MAIN main
PROC mystery ARGS 0
  LDI 9
  LDI 8
  EXIT 0
ENDPROC
PROC main
  PCAL mystery
  STOR G+0
  STOR G+1
  EXIT 0
ENDPROC
`
	f := tnsasm.MustAssemble("rv", src)
	opts := core.DefaultOptions()
	opts.IgnoreSummaries = true
	opts.Hints.ReturnValSize = map[string]int8{"mystery": 2}
	if err := core.Accelerate(f, opts); err != nil {
		t.Fatal(err)
	}
	r, _ := xrun.New(f, nil, risc.Config{})
	if err := r.Run(100000); err != nil {
		t.Fatal(err)
	}
	if r.Int.Mem[0] != 8 || r.Int.Mem[1] != 9 {
		t.Errorf("results: %v", r.Int.Mem[:2])
	}
	if r.Interludes != 0 {
		t.Errorf("hinted program fell back %d times", r.Interludes)
	}
}

// TestIgnoreSummaries: without summaries the recursive result-size
// analysis still resolves direct calls (the paper's "older codefiles").
func TestIgnoreSummaries(t *testing.T) {
	src := `
GLOBALS 8
MAIN main
PROC inc RESULT 1 ARGS 1
  LOAD L-3
  ADDI 1
  EXIT 1
ENDPROC
PROC twice RESULT 1 ARGS 1
  LOAD L-3
  ADDS 1
  STOR S-0
  PCAL inc
  ADDS 1
  STOR S-0
  PCAL inc
  EXIT 1
ENDPROC
PROC main
  LDI 5
  ADDS 1
  STOR S-0
  PCAL twice
  STOR G+0
  EXIT 0
ENDPROC
`
	f := tnsasm.MustAssemble("nosummaries", src)
	opts := core.DefaultOptions()
	opts.IgnoreSummaries = true
	if err := core.Accelerate(f, opts); err != nil {
		t.Fatal(err)
	}
	// The analysis should have recovered every result size: no checks.
	if n := f.Accel.Stats.RPChecks; n != 0 {
		t.Errorf("analysis failed to resolve result sizes: %d checks", n)
	}
	r, _ := xrun.New(f, nil, risc.Config{})
	if err := r.Run(100000); err != nil {
		t.Fatal(err)
	}
	if r.Int.Mem[0] != 7 {
		t.Errorf("twice(5) = %d, want 7", r.Int.Mem[0])
	}
	if r.Interludes != 0 {
		t.Errorf("%d interludes", r.Interludes)
	}
}

// TestOptionsNotMutated: Accelerate and Analyze default unset knobs (level,
// millicode labels, code base, worker count) through a private copy. A
// caller reusing one Options struct across codefiles must never observe
// those defaults written back — that leaked state between translations.
func TestOptionsNotMutated(t *testing.T) {
	opts := core.Options{} // every knob unset: all defaults apply
	want := core.Options{}

	f := tnsasm.MustAssemble("m", hintProg)
	if err := core.Accelerate(f, opts); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(opts, want) {
		t.Errorf("Accelerate wrote defaults into the caller's Options:\n got %+v\nwant %+v", opts, want)
	}
	if _, err := core.Analyze(f, opts); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(opts, want) {
		t.Errorf("Analyze wrote defaults into the caller's Options:\n got %+v\nwant %+v", opts, want)
	}

	// The same zero-valued struct must stay reusable: a second Accelerate
	// gets identical results, not state from the first.
	f2 := tnsasm.MustAssemble("m", hintProg)
	if err := core.Accelerate(f2, opts); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Accel.Stats, f2.Accel.Stats) {
		t.Errorf("reused Options changed the translation: %+v vs %+v",
			f.Accel.Stats, f2.Accel.Stats)
	}
}

// TestCodeSpaceRange: a code space is 0 (user) or 1 (library), and a code
// base is 0 or its space's millicode.CodeBase, the only base any loader
// uses. Anything else is an error from every entry point, not a section
// identical to space 0's, or one that fails Verify at the base it is loaded
// at, filed under a cache key of its own.
func TestCodeSpaceRange(t *testing.T) {
	for _, opts := range []core.Options{
		{Space: 2},
		{Space: 255},
		{CodeBase: millicode.UserCodeBase + 4096},
		{CodeBase: millicode.LibCodeBase},
		{Space: 1, CodeBase: millicode.UserCodeBase},
	} {
		f := tnsasm.MustAssemble("m", hintProg)
		if err := core.Accelerate(f, opts); err == nil || f.Accel != nil {
			t.Errorf("Accelerate accepted space %d, code base %d", opts.Space, opts.CodeBase)
		}
		if _, err := core.Analyze(f, opts); err == nil {
			t.Errorf("Analyze accepted space %d, code base %d", opts.Space, opts.CodeBase)
		}
		if _, err := opts.TransKey(f.Fingerprint()); err == nil {
			t.Errorf("TransKey accepted space %d, code base %d", opts.Space, opts.CodeBase)
		}
	}
}

// TestAnalyzeReport exercises the analysis-only API behind axcel -report.
func TestAnalyzeReport(t *testing.T) {
	f := tnsasm.MustAssemble("rep", hintProg)
	rep, err := core.Analyze(f, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Procs != 2 {
		t.Errorf("procs = %d", rep.Procs)
	}
	if rep.CheckedCalls == 0 {
		t.Error("the unhinted XCAL should be reported as a checked call")
	}
	if rep.Instrs == 0 {
		t.Error("instruction count missing")
	}
}
