package core_test

import (
	"fmt"
	"strings"
	"testing"

	"tnsr/internal/core"
	"tnsr/internal/obs"
	"tnsr/internal/risc"
	"tnsr/internal/tnsasm"
	"tnsr/internal/xrun"
)

// TestReturnSizeGuessCorpus is experiment E9: how good is the paper's
// pattern heuristic for guessing the result size of calls the analysis
// cannot resolve? We build a corpus of XCAL sites with no SETRP clue whose
// callees return 0, 1 or 2 words, consumed in the idiomatic way (nothing /
// STOR / STD) or in a misleading way, then count how many sites execute
// without falling into interpreter mode (guess right) vs. how many trip
// the run-time RP check (guess wrong — caught, never silent).
func TestReturnSizeGuessCorpus(t *testing.T) {
	type site struct {
		result  int    // callee result words
		consume string // code following the call
		wantHit bool   // heuristic expected to guess right
	}
	sites := []site{
		{0, "  NOP\n", true},
		{1, "  STOR G+2\n", true},
		{2, "  STD G+4\n", true},
		{1, "  STOR G+6\n", true},
		{0, "  LDI 3\n  STOR G+7\n", true},
		// Misleading: two words consumed by two separate STORs looks like
		// a one-word result to the heuristic.
		{2, "  STOR G+8\n  STOR G+9\n", false},
		// Misleading: a one-word result immediately fed to DEL... DEL pops
		// one: heuristic guesses 1 (pops=1): right.
		{1, "  DEL\n", true},
	}

	var src strings.Builder
	src.WriteString("GLOBALS 32\nMAIN main\n")
	// Callees pep 0..2 returning 0, 1, 2 words. Summaries are hidden by
	// declaring no RESULT attribute; the bodies keep the analysis honest
	// by being reachable only via XCAL (so exitRPOf still solves them —
	// defeat that by an XCAL through a value the analysis can't see; the
	// result-size *analysis* of the callee still succeeds, so to force
	// guessing we call through PLabels loaded from memory, which hides
	// the target identity entirely).
	src.WriteString("PROC ret0 ARGS 0\n  EXIT 0\nENDPROC\n")
	src.WriteString("PROC ret1 ARGS 0\n  LDI 7\n  EXIT 0\nENDPROC\n")
	src.WriteString("PROC ret2 ARGS 0\n  LDI 1\n  LDI 2\n  EXIT 0\nENDPROC\n")
	src.WriteString("PROC main\n")
	for i, s := range sites {
		// The PLabel comes from a global cell, so the callee — and its
		// result size — is unknowable statically.
		src.WriteString(fmt.Sprintf("  LDI %d\n  STOR G+0\n", s.result))
		src.WriteString("  LOAD G+0\n  XCAL\n")
		src.WriteString(s.consume)
		// Resynchronize RP after each site so one wrong guess cannot
		// cascade into the next site's check (a compiler would know the
		// true stack depth here).
		src.WriteString("  SETRP 7\n")
		_ = i
	}
	src.WriteString("  EXIT 0\nENDPROC\n")

	f, err := tnsasm.Assemble("corpus", src.String())
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Accelerate(f, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	st := f.Accel.Stats
	if st.RPChecks == 0 {
		t.Fatal("expected run-time RP checks for unhinted XCALs")
	}
	r, err := xrun.New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	r.Observe(rec)
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if r.Trap != 0 {
		t.Fatalf("trap %d at %d", r.Trap, r.TrapP)
	}
	// A wrong guess trips its site's run-time check: one escape site each.
	wrong := len(r.Report(rec).Sites)
	expectedWrong := 0
	for _, s := range sites {
		if !s.wantHit {
			expectedWrong++
		}
	}
	t.Logf("corpus: %d XCAL sites, %d run-time checks emitted, %d guesses wrong (expected %d)",
		len(sites), st.RPChecks, wrong, expectedWrong)
	if wrong > expectedWrong {
		t.Errorf("heuristic missed more sites than expected: %d > %d", wrong, expectedWrong)
	}
	// Every consumption still executed correctly (fallback repaired the
	// wrong guesses): the stores landed.
	if r.Int.Mem[2] != 7 || r.Int.Mem[6] != 7 {
		t.Errorf("one-word results not stored: %v", r.Int.Mem[:10])
	}
	if r.Int.Mem[4] != 1 || r.Int.Mem[5] != 2 {
		t.Errorf("two-word result not stored: %v", r.Int.Mem[:10])
	}
	if r.Int.Mem[8] != 2 || r.Int.Mem[9] != 1 {
		t.Errorf("mis-guessed site not repaired: %v", r.Int.Mem[:10])
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
