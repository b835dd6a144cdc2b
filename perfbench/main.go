// Command perfbench is the repository's benchmark: four closed-loop
// workloads (fleet-et1, xlate-cold, xlate-warm, campaign) measured on the
// host clock and the simulated clock, every op's output checked. An
// untraced run prints the end-to-end metrics; a traced run (-trace 1)
// records a span around every call the harness makes into the program and
// prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

var workloadNames = []string{"fleet-et1", "xlate-cold", "xlate-warm", "campaign"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "fleet-et1":
		return newFleet(), nil
	case "xlate-cold":
		return newCold(), nil
	case "xlate-warm":
		return newWarm(), nil
	case "campaign":
		return newCampaign(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setups is how many times a run sets up; setup_s is their median.
const setups = 5

// outDir holds everything a run writes: set-up directories and traces.
var outDir = filepath.Join(".bench_build", "perfbench")

func run() error {
	var (
		name    = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "workload seed; every input is generated from it")
		seconds = flag.Int("seconds", 20, "length of the timed window")
		trace   = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("need -seconds >= 1 and -trace 0 or 1")
	}
	wl, err := newWorkload(*name)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	fmt.Printf("perfbench %s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *trace)
	fmt.Printf("env: %s\n", environment(outDir))

	t0 := time.Now()
	if err := wl.inputs(*seed, *seconds); err != nil {
		return fmt.Errorf("inputs: %w", err)
	}
	fmt.Printf("inputs: %.3f s (seeded input generation, not set-up)\n", time.Since(t0).Seconds())

	defer wl.close()
	var setupS []float64
	for k := 0; k < setups; k++ {
		t := time.Now()
		if err := wl.setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	fmt.Printf("set-up: %s s\n", fmtList(setupS))

	d := time.Duration(*seconds) * time.Second
	var res result
	if *trace == 0 {
		res, err = untraced(wl, d, median(setupS))
	} else {
		res, err = traced(wl, d, filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.tsv", *name, *seed)))
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// untraced runs one window and computes the end-to-end metrics.
func untraced(wl workload, d time.Duration, setupS float64) (result, error) {
	win := runWindow(wl, 0, d, nil)
	rows, late, err := wl.finish()
	if err != nil {
		return result{}, err
	}
	failed := win.failed + late
	printWindow(win)
	p50, err := percentile(win.latMs, 0.50)
	if err != nil {
		return result{}, err
	}
	p90, err := percentile(win.latMs, 0.90)
	if err != nil {
		return result{}, err
	}
	sim, err := simMetrics(rows)
	if err != nil {
		return result{}, err
	}
	printRows(rows)
	m := map[string]metric{
		"setup_s":            {setupS, "s"},
		"ops_per_s":          {win.opsPerSec(), "1/s"},
		"p50_ms":             {p50, "ms"},
		"p90_ms":             {p90, "ms"},
		"cpu_ms_per_op":      {win.cpu, "ms"},
		"peak_heap_mb":       {win.peakHeapMB, "MB"},
		"sim_cycles_per_tns": {sim.cyclesPerTNS, "cycles"},
		"code_expansion":     {sim.expansion, "ratio"},
	}
	printMetrics(m)
	// fail_pct and interp_pct read 0 on a healthy build, so they are
	// printed here and not in the result; failures show in "failed".
	printMetrics(map[string]metric{
		"fail_pct":   {100 * float64(failed) / float64(win.ops), "%"},
		"interp_pct": {sim.interpPct, "%"},
	})
	fmt.Printf("samples: %d ops, %d beyond p90\n", len(win.latMs), len(win.latMs)-nearestRank(0.90, len(win.latMs)))
	return result{Correct: failed == 0, Attempted: win.ops, Failed: failed, Metrics: m}, nil
}

// traced splits the window: an untraced half, then a traced half whose
// ops carry spans, then a replay of the traced ops one layer at a time.
// Both halves issue the same op indices, so trace.overhead_pct compares
// like with like, unless the workload's inputs must never repeat.
func traced(wl workload, d time.Duration, tracePath string) (result, error) {
	base := runWindow(wl, 0, d/2, nil)
	first := 0
	if _, ok := wl.(interface{ uniqueOps() }); ok {
		first = base.ops
	}
	tr := newTracer()
	tw := runWindow(wl, first, d/2, tr)
	replayed, err := replayAll(wl, tr, tw.opsDone)
	if err != nil {
		return result{}, fmt.Errorf("replay: %w", err)
	}
	rows, late, err := wl.finish()
	if err != nil {
		return result{}, err
	}
	sim, err := simMetrics(rows)
	if err != nil {
		return result{}, err
	}
	printWindow(base)
	printWindow(tw)
	m := layerMetrics(tw, base, tr, replayed, sim)
	printMetrics(m)
	fmt.Printf("replayed %d of %d traced ops\n", replayed, tw.ops)
	if err := tr.write(tracePath); err != nil {
		return result{}, err
	}
	fmt.Printf("spans: %d written to %s\n", len(tr.spans), tracePath)
	failed := base.failed + tw.failed + late
	return result{Correct: failed == 0, Attempted: base.ops + tw.ops, Failed: failed, Metrics: m}, nil
}

// maxReplays bounds the replay phase; the traced ops it replays are spread
// evenly over the window.
const maxReplays = 2000

func replayAll(wl workload, tr *tracer, ops []int) (int, error) {
	sorted := append([]int(nil), ops...)
	sort.Ints(sorted)
	step := (len(sorted) + maxReplays - 1) / maxReplays
	n := 0
	for k := 0; k < len(sorted); k += max(step, 1) {
		i := sorted[k]
		s, id := rootScope(tr, i).begin("replay")
		err := wl.replay(i, s)
		s.end(id)
		if err != nil {
			return n, fmt.Errorf("op %d: %w", i, err)
		}
		n++
	}
	return n, nil
}

// The human-readable record, printed before the result line.

func printWindow(w *window) {
	fmt.Printf("window: %d ops (%d failed) in %.3f s, steal %.2f%% of machine CPU\n",
		w.ops, w.failed, w.elapsed.Seconds(), w.stealPct)
	if w.firstErr != nil {
		fmt.Printf("first failure: %v\n", w.firstErr)
	}
	fmt.Printf("steal per second: %s\n", fmtList(w.sliceSteal))
	ops := make([]float64, len(w.perSec))
	for i := range w.perSec {
		ops[i] = float64(w.perSec[i].Load())
	}
	fmt.Printf("ops per second: %s\n", fmtList(ops))
	fmt.Printf("live heap: median per-second peak %.3f MB, peak %.3f MB\n", w.peakHeapMB, w.maxHeapMB)
}

func printRows(rows []simRow) {
	for _, x := range rows {
		fmt.Printf("row %-34s cycles/tns %8.4f  interp %6.3f%%  expansion %7.4f\n",
			x.name, x.cycles/float64(x.tnsExec), 100*x.interpCyc/x.cycles,
			float64(x.stats.RISCInstrs)/float64(x.stats.TNSInstrs))
	}
}

func printMetrics(m map[string]metric) {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("metric %-30s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3g", x)
	}
	return strings.Join(parts, " ")
}
