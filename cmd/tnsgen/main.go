// Command tnsgen runs the coverage-guided TNS program-generator campaign
// from the command line: N seeded programs through the differential oracle
// (interpreted vs accelerated at every option level), with optional
// steering toward uncovered escape-reason classes, failure minimization,
// and scenario output for the checked-in corpus.
//
// Usage:
//
//	tnsgen [-n N] [-seed S] [-steer] [-minimize] [-out dir]
//	       [-lib-every K] [-chaos-every K] [-adaptive-every K] [-workers W]
//	       [-backends mips,ob0]
//
// The campaign is fully deterministic in (-seed, -n, -steer, the every-K
// knobs): rerunning with the same flags reruns the identical programs.
// -minimize delta-debugs every failing program before reporting it;
// -out writes each failure (minimized if requested) as a scenario file the
// internal/tnsgen corpus tests can replay. -backends runs the oracle's
// level sweep on each named RISC target (a cross-backend campaign: any
// divergence on one target and not another is a backend bug by
// construction); the default is the default target only.
//
// Exit codes: 0 all programs passed, 1 failures or missing class coverage,
// 2 usage.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tnsr/internal/backend"
	"tnsr/internal/obs"
	"tnsr/internal/tnsgen"
)

func main() {
	n := flag.Int("n", 200, "number of generated programs")
	seed := flag.Int64("seed", 1, "campaign base seed (program i uses seed+i)")
	steer := flag.Bool("steer", false, "steer generation toward uncovered escape classes")
	minimize := flag.Bool("minimize", false, "delta-debug failing programs before reporting")
	out := flag.String("out", "", "directory for failure scenario files")
	libEvery := flag.Int("lib-every", 5, "every k-th program is a user+library pair (0 = never)")
	chaosEvery := flag.Int("chaos-every", 0, "add a chaos pass to every k-th program (0 = never)")
	adaptiveEvery := flag.Int("adaptive-every", 0, "add a RunAdaptive cycle to every k-th program (0 = never)")
	workers := flag.Int("workers", 0, "translator worker count (0 = GOMAXPROCS, 1 = serial)")
	backends := flag.String("backends", "",
		"comma-separated RISC targets to run the oracle on (default: the default target)")
	flag.Parse()
	if flag.NArg() != 0 || *n <= 0 {
		flag.Usage()
		os.Exit(2)
	}

	o := tnsgen.DefaultOracle()
	o.Workers = *workers
	if *backends != "" {
		for _, name := range strings.Split(*backends, ",") {
			be, ok := backend.ByName(strings.TrimSpace(name))
			if !ok {
				fmt.Fprintf(os.Stderr, "tnsgen: unknown backend %q (have: %s)\n",
					name, strings.Join(backend.Names(), ", "))
				os.Exit(2)
			}
			o.Backends = append(o.Backends, be)
		}
	}
	c := &tnsgen.Campaign{
		Seed: *seed, N: *n, Steer: *steer,
		LibraryEvery:  *libEvery,
		ChaosEvery:    *chaosEvery,
		AdaptiveEvery: *adaptiveEvery,
		Oracle:        o,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	res := c.Run()

	fmt.Printf("campaign: seed=%d n=%d steer=%v\n", *seed, *n, *steer)
	fmt.Printf("programs=%d passes=%d bp-hits=%d chaos-mutants=%d failures=%d\n",
		res.Programs, res.Passes, res.BPHits, res.ChaosMutants, len(res.Failures))
	fmt.Print(res.Coverage.String())

	bad := false
	if miss := res.Coverage.Missing(); *steer && len(miss) > 0 {
		fmt.Printf("MISSING run-time coverage: %v\n", miss)
		bad = true
	}
	if u := res.Coverage.Runtime[obs.EscapeUnknown]; u != 0 {
		fmt.Printf("ESCAPE-UNKNOWN fired %d times\n", u)
		bad = true
	}

	for i := range res.Failures {
		f := &res.Failures[i]
		p := f.Program
		if *minimize {
			// The minimizer's keep predicate is "the oracle still fails".
			p = tnsgen.Minimize(p, func(v *tnsgen.Program) bool {
				_, err := tnsgen.RunOracle(v.Subject(), c.Oracle)
				return err != nil
			})
		}
		fmt.Printf("FAIL %s (seed %d): %s\n", f.Name, f.Seed, f.Err)
		sc := tnsgen.FromFailure(&tnsgen.Failure{
			Name: f.Name, Seed: f.Seed, Config: f.Config, Program: p, Err: f.Err,
		})
		if *out != "" {
			if err := os.MkdirAll(*out, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*out, fmt.Sprintf("%s.tns", f.Name))
			if err := os.WriteFile(path, sc.Marshal(), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("  wrote %s\n", path)
		} else {
			fmt.Printf("  user:\n%s", p.UserSource())
			if lib := p.LibSource(); lib != "" {
				fmt.Printf("  lib:\n%s", lib)
			}
		}
	}
	if len(res.Failures) > 0 || bad {
		os.Exit(1)
	}
}
