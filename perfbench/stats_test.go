package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"tnsr/internal/codefile"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if _, err := percentile(seq(99), 0.90); err == nil || !strings.Contains(err.Error(), "9 of 99") {
		t.Fatalf("p90 of 99 samples: err %v, want the rule to refuse (9 beyond)", err)
	}
	v, err := percentile(seq(100), 0.90)
	if err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90 with 10 samples beyond", v, err)
	}
	v, err = percentile(seq(1000), 0.90)
	if err != nil || v != 900 {
		t.Fatalf("p90 of 1..1000 = %v, %v; want 900", v, err)
	}
	if v, err := percentile(seq(21), 0.50); err != nil || v != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples must fail")
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
}

func TestGeomeanOverRows(t *testing.T) {
	g, err := geomean([]float64{1, 4, 16})
	if err != nil || math.Abs(g-4) > 1e-12 {
		t.Fatalf("geomean(1,4,16) = %v, %v; want 4", g, err)
	}
	if _, err := geomean([]float64{2, 0}); err == nil {
		t.Fatal("a zero row must make the geometric mean fail")
	}
	if _, err := geomean(nil); err == nil {
		t.Fatal("geometric mean of no rows must fail")
	}

	// Two rows: cycles/TNS 2 and 8 (geomean 4), expansion 1 and 4
	// (geomean 2); interlude share is cycle-weighted: 50 of 1000 cycles.
	rows := []simRow{
		{name: "a", tnsExec: 100, cycles: 200, interpCyc: 50,
			stats: codefile.AccelStats{TNSInstrs: 10, RISCInstrs: 10, RPChecks: 1, PuzzlePoints: 2, FilledSlots: 3}},
		{name: "b", tnsExec: 100, cycles: 800,
			stats: codefile.AccelStats{TNSInstrs: 10, RISCInstrs: 40, RPChecks: 4, FilledSlots: 1}},
	}
	f, err := simMetrics(rows)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(f.cyclesPerTNS-4) > 1e-12 || math.Abs(f.expansion-2) > 1e-12 || math.Abs(f.interpPct-5) > 1e-12 {
		t.Fatalf("sim figures = %+v; want cycles/tns 4, expansion 2, interp 5%%", f)
	}
	if f.sums.RPChecks != 5 || f.sums.PuzzlePoints != 2 || f.sums.FilledSlots != 4 {
		t.Fatalf("summed stats = %+v", f.sums)
	}
	rows[1].tnsExec = 0
	if _, err := simMetrics(rows); err == nil {
		t.Fatal("a row without executed TNS instructions must fail")
	}
}

func TestCPUFromRusageDeltas(t *testing.T) {
	before := cpuTime{user: time.Second, sys: 500 * time.Millisecond}
	after := cpuTime{user: 3 * time.Second, sys: time.Second}
	if got := cpuMsPerOp(before, after, 10); math.Abs(got-250) > 1e-9 {
		t.Fatalf("cpu ms/op = %v; want (2 s user + 0.5 s sys) / 10 = 250", got)
	}
	if got := cpuMsPerOp(before, after, 0); got != 0 {
		t.Fatalf("no ops: %v", got)
	}
	// The live reading must move forward under load.
	c0 := readCPU()
	for x, deadline := 0, time.Now().Add(20*time.Millisecond); time.Now().Before(deadline); x++ {
		_ = x * x
	}
	if c1 := readCPU(); c1.user+c1.sys <= c0.user+c0.sys {
		t.Fatalf("rusage did not advance: %+v -> %+v", c0, c1)
	}
}

func TestStealFromProcStat(t *testing.T) {
	a := parseTicks("cpu  100 0 50 800 10 0 0 40 7 0")
	b := parseTicks("cpu  200 0 100 1500 10 0 0 140 9 0")
	if a.total != 1000 || a.steal != 40 {
		t.Fatalf("parse = %+v; want total 1000 (guest excluded), steal 40", a)
	}
	if got := stealPct(a, b); math.Abs(got-100*100.0/950) > 1e-9 {
		t.Fatalf("steal = %v%%", got)
	}
	if got := parseTicks("cpu0 1 2 3"); got != (cpuTicks{}) {
		t.Fatalf("short line parsed as %+v", got)
	}
}

func TestHeapSecondPeaks(t *testing.T) {
	// Three "seconds" of two samples; one rare spike in the last.
	typical, peak := secondPeaks([]float64{1, 2, 3, 2, 2, 9}, 2)
	if typical != 3 || peak != 9 {
		t.Fatalf("secondPeaks = %v, %v; want median of (2,3,9) = 3 and peak 9", typical, peak)
	}
	if typical, peak := secondPeaks([]float64{4}, 200); typical != 4 || peak != 4 {
		t.Fatalf("one sample: %v, %v", typical, peak)
	}
}
