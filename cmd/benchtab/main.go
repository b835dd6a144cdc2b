// Command benchtab regenerates the paper's evaluation tables and figures,
// all on the simulated clock: cycles of the cost models and the RISC
// timing models, never host time.
//
// Usage:
//
//	benchtab               print everything
//	benchtab -table N      print only table N (1..4)
//	benchtab -figure N     print only figure N (1..2)
//	benchtab -claims       print only the headline claims
//	benchtab -ablation W   print the optimization ablation on workload W
//	benchtab -crossover    print the static vs dynamic translation
//	                       crossover (mips only)
//	benchtab -iters k=v,.. override per-workload iteration counts
//	benchtab -jsondir D    also write BENCH_<workload>.json records into D
//	benchtab -backend name measure against this RISC target instead of the
//	                       default MIPS/R3000; the target runs on its own
//	                       timing model, so times are not comparable to the
//	                       paper's tables (fidelity and expansion still are)
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"

	"tnsr/internal/backend"
	"tnsr/internal/bench"
	"tnsr/internal/workloads"
)

func main() {
	table := flag.Int("table", 0, "print only this table (1..4)")
	figure := flag.Int("figure", 0, "print only this figure (1..2)")
	claims := flag.Bool("claims", false, "print only the headline claims")
	ablation := flag.String("ablation", "", "run the optimization ablation on a workload (e.g. dhry16)")
	crossover := flag.Bool("crossover", false, "static vs dynamic translation crossover (extension)")
	iters := flag.String("iters", "", "override iteration counts, e.g. dhry16=500,et1=100")
	jsondir := flag.String("jsondir", "", "also write machine-readable BENCH_<workload>.json files here")
	target := flag.String("backend", "mips",
		"RISC target to measure ("+strings.Join(backend.Names(), ", ")+")")
	flag.Parse()

	counts, err := parseIters(*iters, bench.Iterations)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		os.Exit(2)
	}

	be, ok := backend.ByName(*target)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchtab: unknown backend %q (have: %s)\n",
			*target, strings.Join(backend.Names(), ", "))
		os.Exit(2)
	}
	if be.ID() != 0 {
		if *crossover {
			// RunDynamic and StaticCost translate for mips only.
			fmt.Fprintf(os.Stderr, "benchtab: -crossover measures mips only, not backend %q\n", be.Name())
			os.Exit(2)
		}
		// Non-default targets execute on their own timing model; the
		// paper's tables describe the MIPS/R3000 numbers.
		fmt.Fprintf(os.Stderr,
			"benchtab: measuring backend %q on its own timing model; times are not comparable to the paper's tables\n",
			be.Name())
	}

	if *crossover {
		points, err := bench.Crossover([]int{1, 5, 20, 100, 500, 2500})
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(bench.CrossoverTable(points))
		return
	}

	if *ablation != "" {
		rows, err := bench.Ablate(*ablation, counts[*ablation], be)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
		fmt.Print(bench.AblationTable(*ablation, rows))
		return
	}

	rows, err := bench.Measure(counts, be)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
		os.Exit(1)
	}
	if *jsondir != "" {
		if err := bench.WriteBenchJSON(*jsondir, rows); err != nil {
			fmt.Fprintf(os.Stderr, "benchtab: %v\n", err)
			os.Exit(1)
		}
	}
	switch {
	case *table == 1:
		fmt.Print(bench.Table1(rows))
	case *table == 2:
		fmt.Print(bench.Table2(rows))
	case *table == 3:
		fmt.Print(bench.Table3(rows))
	case *table == 4:
		fmt.Print(bench.Table4(rows))
	case *figure == 1:
		fmt.Print(bench.Figure1(rows))
	case *figure == 2:
		fmt.Print(bench.Figure2(rows))
	case *claims:
		fmt.Print(bench.Claims(rows))
	default:
		fmt.Print(bench.FullReport(rows))
	}
}

// parseIters returns a copy of base with the counts of an -iters spec
// ("dhry16=500,et1=100") applied. Every name must be one of the paper's
// workloads and every count at least 1.
func parseIters(spec string, base map[string]int) (map[string]int, error) {
	counts := maps.Clone(base)
	if spec == "" {
		return counts, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad -iters entry %q: want name=count", kv)
		}
		if !slices.Contains(workloads.Names, name) {
			return nil, fmt.Errorf("bad -iters entry %q: unknown workload %q (have: %s)",
				kv, name, strings.Join(workloads.Names, ", "))
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("bad -iters entry %q: %v", kv, err)
		}
		if n < 1 {
			return nil, fmt.Errorf("bad -iters entry %q: count %d is below 1", kv, n)
		}
		counts[name] = n
	}
	return counts, nil
}
