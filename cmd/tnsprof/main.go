// Command tnsprof runs a workload or example program in mixed mode with the
// execution telemetry recorder attached and prints the report: mode
// residency ("% time interpreted", as the paper frames it), the
// escape-reason histogram, PMap hit rate, per-procedure attribution and
// translation-phase timings.
//
// Usage:
//
//	tnsprof dhry16            human-readable report for one workload
//	tnsprof -level fast tal   choose the acceleration level
//	tnsprof -json dhry16      machine-readable report (schema tnsr/obs-report/v1)
//	tnsprof -prom dhry16      Prometheus text exposition format
//	tnsprof -list             list runnable workloads and examples
//
//	tnsprof -emit-profile p.pgo.json dhry16
//	    additionally run the observe -> retranslate -> rerun cycle
//	    (xrun.RunAdaptive) and write the captured PGO profile; the printed
//	    report is then the profile-fed second pass.
//
//	tnsprof -push http://host:9911 dhry16
//	    run the same cycle against a tnsprofd fleet profile daemon: pass 1
//	    translates under the fetched fleet aggregate, the local capture is
//	    pushed, and the printed report is the pass steered by the merged
//	    aggregate. -push-token sends a bearer token.
//
//	tnsprof -merge a.json b.json ...
//	    merge per-machine JSON reports (obs.Report.Merge, the fleet host's
//	    aggregation) into one report and print it; composes with
//	    -json/-prom/-top.
package main

import (
	"flag"
	"fmt"
	"os"

	"tnsr/internal/bench"
	"tnsr/internal/codefile"
	"tnsr/internal/obs"
	"tnsr/internal/pgo"
	"tnsr/internal/profsrv"
	"tnsr/internal/xrun"
)

func main() {
	level := flag.String("level", "default", "acceleration level: stmtdebug, default or fast")
	iters := flag.Int("iters", 0, "workload iteration count (0 = bench default)")
	jsonOut := flag.Bool("json", false, "emit the report as JSON")
	promOut := flag.Bool("prom", false, "emit the report in Prometheus text format")
	top := flag.Int("top", 10, "rows in the hottest-sites and per-procedure tables")
	list := flag.Bool("list", false, "list runnable workloads and examples")
	emitProfile := flag.String("emit-profile", "",
		"capture a PGO profile via the adaptive two-pass cycle and write it here")
	push := flag.String("push", "",
		"tnsprofd base URL: fetch the fleet aggregate, run the adaptive cycle, push the capture")
	pushToken := flag.String("push-token", "", "bearer token for -push")
	mergeIn := flag.Bool("merge", false,
		"treat the arguments as per-machine JSON report files and print their merge")
	flag.Parse()

	if *mergeIn {
		rep, err := mergeReports(flag.Args())
		if err != nil {
			fmt.Fprintf(os.Stderr, "tnsprof: %v\n", err)
			os.Exit(1)
		}
		emit(rep, *jsonOut, *promOut, *top)
		return
	}

	if *list {
		for _, name := range bench.ProfileNames() {
			fmt.Println(name)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tnsprof [-level L] [-iters N] [-json|-prom] <workload>")
		fmt.Fprintln(os.Stderr, "run tnsprof -list for the available names")
		os.Exit(2)
	}
	lvl, err := codefile.ParseLevel(*level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tnsprof: %v\n", err)
		os.Exit(2)
	}

	var rep *obs.Report
	if *emitProfile != "" || *push != "" {
		var o xrun.AdaptiveOptions
		if *push != "" {
			o.Source = profsrv.NewClient(*push, *pushToken)
		}
		prof, prep, err := bench.CaptureWorkload(flag.Arg(0), lvl, *iters, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tnsprof: %v\n", err)
			os.Exit(1)
		}
		if *emitProfile != "" {
			if err := pgo.WriteFile(*emitProfile, prof); err != nil {
				fmt.Fprintf(os.Stderr, "tnsprof: %v\n", err)
				os.Exit(1)
			}
		}
		rep = prep
	} else {
		rep, err = bench.ProfileWorkload(flag.Arg(0), lvl, *iters)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tnsprof: %v\n", err)
			os.Exit(1)
		}
	}
	emit(rep, *jsonOut, *promOut, *top)
}

func emit(rep *obs.Report, jsonOut, promOut bool, top int) {
	switch {
	case jsonOut:
		data, err := rep.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "tnsprof: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(data)
		fmt.Println()
	case promOut:
		rep.WritePrometheus(os.Stdout)
	default:
		rep.WriteText(os.Stdout, top)
	}
}

// mergeReports folds per-machine report files left to right with
// obs.Report.Merge — the same aggregation the fleet host applies.
func mergeReports(paths []string) (*obs.Report, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("-merge needs at least one report file")
	}
	var acc *obs.Report
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rep, err := obs.ParseReport(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if acc == nil {
			acc = rep
			continue
		}
		if err := acc.Merge(rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
	}
	return acc, nil
}
