package xrun

import (
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/interp"
	"tnsr/internal/talc"
)

const dynProg = `
INT total;
INT PROC work(n); INT n;
BEGIN
  INT i; INT s;
  s := 0;
  FOR i := 1 TO n DO s := s + i \ 7;
  RETURN s;
END;
PROC main MAIN;
BEGIN
  INT r;
  total := 0;
  FOR r := 1 TO @RUNS@ DO total := (total + work(60)) LAND 16383;
  PUTNUM(total);
END;
`

func buildDyn(t *testing.T, runs int) *codefile.File {
	t.Helper()
	src := ""
	for _, line := range []byte(dynProg) {
		src += string(line)
	}
	src = replaceRuns(src, runs)
	f, err := talc.Compile("dyn", src)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func replaceRuns(s string, runs int) string {
	out := ""
	i := 0
	for i < len(s) {
		if i+6 <= len(s) && s[i:i+6] == "@RUNS@" {
			out += itoa(runs)
			i += 6
			continue
		}
		out += string(s[i])
		i++
	}
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	digits := ""
	for v > 0 {
		digits = string(rune('0'+v%10)) + digits
		v /= 10
	}
	return digits
}

// interpretDyn is the pure-interpreter reference outcome of buildDyn(runs).
func interpretDyn(t *testing.T, runs int) *Outcome {
	t.Helper()
	want, err := Interpret(interp.New(buildDyn(t, runs), nil), 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestDynamicTranslationCorrectness(t *testing.T) {
	want := interpretDyn(t, 30)
	f := buildDyn(t, 30)
	res, err := RunDynamic(f, nil, 5, codefile.LevelDefault, 4, 500_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if err := want.Check(res.Outcome); err != nil {
		t.Error(err)
	}
	if res.Retranslations == 0 {
		t.Error("expected a hand-off to translated code")
	}
	if len(res.HotProcs) == 0 {
		t.Error("no procedures got hot")
	}
	if res.InterpCycles == 0 || res.RunnerCycles == 0 || res.TranslateCycles == 0 {
		t.Errorf("incomplete breakdown: %+v", res)
	}
}

// TestStaticVsDynamicCrossover reproduces the rationale the paper gives for
// choosing static translation: for short runs, lazy translation wins (it
// translates only what gets hot and skips cold code entirely); for long
// runs — Tandem's "months-long execution of a few applications" — the
// up-front static translation is amortized and pure translated speed wins.
func TestStaticVsDynamicCrossover(t *testing.T) {
	cost := func(runs int) (static, dynamic float64) {
		fs := buildDyn(t, runs)
		runC, transC, _, err := StaticCost(fs, nil, codefile.LevelDefault, 2_000_000_000)
		if err != nil {
			t.Fatal(err)
		}
		fd := buildDyn(t, runs)
		res, err := RunDynamic(fd, nil, 5, codefile.LevelDefault, 4, 2_000_000_000)
		if err != nil {
			t.Fatal(err)
		}
		return runC + transC, res.Total()
	}
	sShort, dShort := cost(2)
	sLong, dLong := cost(2500)
	t.Logf("short run: static %.0f vs dynamic %.0f cycles", sShort, dShort)
	t.Logf("long run:  static %.0f vs dynamic %.0f cycles", sLong, dLong)
	if dShort >= sShort {
		t.Errorf("short runs should favor dynamic translation (%.0f vs %.0f)", dShort, sShort)
	}
	if sLong >= dLong {
		t.Errorf("long runs should favor static translation (%.0f vs %.0f)", sLong, dLong)
	}
}
