// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each benchmark prints its artifact once and reports headline metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation. cmd/benchtab prints the same tables as a
// standalone tool.
package main

import (
	"fmt"
	"sync"
	"testing"

	"tnsr/internal/bench"
	"tnsr/internal/codefile"
)

var (
	rowsOnce sync.Once
	rows     []*bench.Row
	rowsErr  error
)

func measuredRows(b *testing.B) []*bench.Row {
	rowsOnce.Do(func() {
		rows, rowsErr = bench.Measure(bench.Iterations, nil)
	})
	if rowsErr != nil {
		b.Fatal(rowsErr)
	}
	return rows
}

func relSpeed(r *bench.Row, lvl codefile.AccelLevel) float64 {
	return r.CISCTime["CLX800"] / r.AccelTime[lvl]
}

// BenchmarkTable1 reproduces Table 1 / Figure 1: relative code execution
// speed of each machine and software mode against the CLX 800.
func BenchmarkTable1(b *testing.B) {
	rs := measuredRows(b)
	for i := 0; i < b.N; i++ {
		_ = bench.Table1(rs)
	}
	b.StopTimer()
	fmt.Println(bench.Table1(rs))
	fmt.Println(bench.Figure1(rs))
	for _, r := range rs {
		if r.Name == "et1" {
			b.ReportMetric(relSpeed(r, codefile.LevelFast), "et1-fast-rel-speed")
			continue
		}
	}
	b.ReportMetric(relSpeed(rs[0], codefile.LevelDefault), "dhry16-default-rel-speed")
}

// BenchmarkTable2 reproduces Table 2 / Figure 2: relative cycle efficiency.
func BenchmarkTable2(b *testing.B) {
	rs := measuredRows(b)
	for i := 0; i < b.N; i++ {
		_ = bench.Table2(rs)
	}
	b.StopTimer()
	fmt.Println(bench.Table2(rs))
	fmt.Println(bench.Figure2(rs))
}

// BenchmarkTable3 reproduces Table 3: RISC instructions generated inline
// per CISC instruction for each Accelerator option.
func BenchmarkTable3(b *testing.B) {
	rs := measuredRows(b)
	for i := 0; i < b.N; i++ {
		_ = bench.Table3(rs)
	}
	b.StopTimer()
	fmt.Println(bench.Table3(rs))
	b.ReportMetric(rs[0].Expansion[codefile.LevelDefault], "dhry16-default-expansion")
	b.ReportMetric(rs[0].Expansion[codefile.LevelFast], "dhry16-fast-expansion")
}

// BenchmarkTable4 reproduces Table 4: dynamic code-size expansion 2i+0.75.
func BenchmarkTable4(b *testing.B) {
	rs := measuredRows(b)
	for i := 0; i < b.N; i++ {
		_ = bench.Table4(rs)
	}
	b.StopTimer()
	fmt.Println(bench.Table4(rs))
	b.ReportMetric(rs[0].DynSize[codefile.LevelDefault], "dhry16-default-dynsize")
}

// BenchmarkSpeedupClaims reproduces the scalar claims: 5-8x over
// interpretation, 2-4x over the CLX 800, StmtDebug costs.
func BenchmarkSpeedupClaims(b *testing.B) {
	rs := measuredRows(b)
	for i := 0; i < b.N; i++ {
		_ = bench.Claims(rs)
	}
	b.StopTimer()
	fmt.Println(bench.Claims(rs))
	r := rs[0]
	b.ReportMetric(r.InterpTime/r.AccelTime[codefile.LevelDefault], "dhry16-speedup-vs-interp")
}

// BenchmarkInterpreterResidency reproduces the "<1% of time in interpreter
// mode, even without hints" claim on an adversarial unhinted program, and
// the effect of supplying hints.
func BenchmarkInterpreterResidency(b *testing.B) {
	var noHints, withHints float64
	var err error
	for i := 0; i < b.N; i++ {
		noHints, withHints, err = bench.AdversarialResidency()
		if err != nil {
			b.Fatal(err)
		}
	}
	fmt.Printf("Interpreter residency, unhinted XCALs: %.3f%% (paper: <1%%); with hints: %.3f%%\n\n",
		100*noHints, 100*withHints)
	b.ReportMetric(100*noHints, "unhinted-residency-%")
	b.ReportMetric(100*withHints, "hinted-residency-%")
}

// BenchmarkExitLookup reproduces the 11-cycle EXIT PMap lookup measurement.
func BenchmarkExitLookup(b *testing.B) {
	var cyc int64
	var err error
	for i := 0; i < b.N; i++ {
		cyc, err = bench.ExitLookupCycles()
		if err != nil {
			b.Fatal(err)
		}
	}
	fmt.Printf("EXIT PMap lookup: %d cycles (paper: 11)\n\n", cyc)
	b.ReportMetric(float64(cyc), "exit-lookup-cycles")
}

// BenchmarkStaticVsDynamic is the extension experiment: the crossover
// between up-front (static) and lazy (dynamic) translation that motivates
// the paper's choice of static translation for months-long workloads.
func BenchmarkStaticVsDynamic(b *testing.B) {
	var points []bench.CrossoverPoint
	var err error
	for i := 0; i < b.N; i++ {
		points, err = bench.Crossover([]int{5, 100, 2500})
		if err != nil {
			b.Fatal(err)
		}
	}
	fmt.Println(bench.CrossoverTable(points))
	for _, p := range points {
		if p.Runs == 2500 {
			b.ReportMetric(p.StaticCycles/p.DynamicCycles, "static-advantage-at-2500")
		}
	}
}
