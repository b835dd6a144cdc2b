// Command axcel is the Accelerator: it augments a TNS codefile with
// optimized RISC code, the PMap, and translation statistics — invoked
// explicitly, after compilation, requiring no information from the user
// (hints are optional tuning).
//
// Usage:
//
//	axcel [flags] prog.tns
//
//	-level stmtdebug|default|fast   translation level (default "default")
//	-backend name                   RISC target to translate for (default
//	                                "mips"; see -backend list). The target
//	                                is stamped into the acceleration
//	                                section, so tnsrun simulates it with
//	                                the right machine automatically.
//	-o out.tns                      output path (default: in place)
//	-lib file.tns                   system-library codefile for summaries
//	-space 0|1                      code space of this file (1 = library)
//	-hint name=words                ReturnValSize hint (repeatable)
//	-workers n                      translation workers (0 = all CPUs)
//	-profile p.pgo.json             apply a captured PGO profile (advisory:
//	                                guards stay; a stale profile is ignored)
//	-profile-url http://host:9911   fetch the fleet aggregate for this
//	                                codefile from a tnsprofd daemon and apply
//	                                it (same advisory semantics; a missing or
//	                                stale aggregate degrades to no profile)
//	-token t                        bearer token for -profile-url and -remote
//	-profile-cover f                with -profile, translate only the hottest
//	                                procedures covering fraction f of the
//	                                observed residency weight
//	-cache dir                      persistent retranslation cache: serve the
//	                                translation from dir when an entry with
//	                                this exact (codefile, options, profile)
//	                                key exists, populate it otherwise
//	-remote http://host:9912        translate through a tnsxlated service:
//	                                submit the codefile, poll its content-
//	                                addressed key, fetch and locally re-verify
//	                                the accelerated result (byte-identical to
//	                                a local translation); any remote failure
//	                                degrades to translating locally
//	-report                         print the analysis report and exit
//	-stats                          print translation statistics
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"tnsr/internal/backend"
	_ "tnsr/internal/backend/ob0" // register the second target for -backend
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/pgo"
	"tnsr/internal/profsrv"
	"tnsr/internal/tcache"
	"tnsr/internal/xlate"
)

type hintList []string

func (h *hintList) String() string     { return strings.Join(*h, ",") }
func (h *hintList) Set(s string) error { *h = append(*h, s); return nil }

func main() {
	level := flag.String("level", "default", "stmtdebug, default, or fast")
	target := flag.String("backend", "mips",
		"RISC target to translate for ("+strings.Join(backend.Names(), ", ")+", or list)")
	out := flag.String("o", "", "output codefile (default: rewrite input)")
	libPath := flag.String("lib", "", "system-library codefile (summaries)")
	space := flag.Int("space", 0, "code space (0 user, 1 library)")
	report := flag.Bool("report", false, "print the analysis report only")
	stats := flag.Bool("stats", false, "print translation statistics")
	workers := flag.Int("workers", 0,
		"translation workers; 0 uses every CPU (output is identical either way)")
	profilePath := flag.String("profile", "", "PGO profile to apply (see tnsprof -emit-profile)")
	profileURL := flag.String("profile-url", "",
		"tnsprofd base URL: fetch and apply the fleet aggregate for this codefile")
	token := flag.String("token", "", "bearer token for -profile-url and -remote")
	profileCover := flag.Float64("profile-cover", 0,
		"with -profile, translate only the hottest procedures covering this weight fraction")
	cacheDir := flag.String("cache", "", "persistent retranslation cache directory")
	remoteURL := flag.String("remote", "",
		"tnsxlated base URL: translate remotely, degrade to local on any failure")
	var hints hintList
	flag.Var(&hints, "hint", "ReturnValSize hint, name=words")
	flag.Parse()
	if *target == "list" {
		fmt.Println(strings.Join(backend.Names(), "\n"))
		os.Exit(0)
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: axcel [flags] prog.tns")
		os.Exit(2)
	}

	be, ok := backend.ByName(*target)
	if !ok {
		fmt.Fprintf(os.Stderr, "axcel: unknown backend %q (have: %s)\n",
			*target, strings.Join(backend.Names(), ", "))
		os.Exit(2)
	}

	lvl, err := codefile.ParseLevel(*level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "axcel: %v\n", err)
		os.Exit(2)
	}

	f := mustRead(flag.Arg(0))
	opts := core.Options{Level: lvl, Space: uint8(*space), Workers: *workers, Backend: be}
	if *libPath != "" {
		opts.LibSummaries = mustRead(*libPath).Summaries()
	}
	if *profilePath != "" && *profileURL != "" {
		fmt.Fprintln(os.Stderr, "axcel: -profile and -profile-url are mutually exclusive")
		os.Exit(2)
	}
	if *profilePath != "" {
		prof, err := pgo.ReadFile(*profilePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "axcel:", err)
			os.Exit(1)
		}
		opts.Profile = prof
		opts.ProfileCover = *profileCover
	}
	if *profileURL != "" {
		// Fetch-then-translate. A fleet aggregate that doesn't exist (or
		// that was captured against a different build — core.Accelerate
		// ignores mismatched fingerprints) degrades to an unprofiled
		// translation; only a network/protocol failure is fatal, because
		// the user explicitly asked for fleet advice.
		cl := profsrv.NewClient(*profileURL, *token)
		prof, err := cl.Fetch(fmt.Sprintf("%016x", f.Fingerprint()))
		if err != nil {
			fmt.Fprintln(os.Stderr, "axcel:", err)
			os.Exit(1)
		}
		if prof == nil {
			fmt.Fprintln(os.Stderr, "axcel: no fleet aggregate for this codefile yet; translating without a profile")
		}
		opts.Profile = prof
		opts.ProfileCover = *profileCover
	}
	if len(hints) > 0 {
		opts.Hints.ReturnValSize = map[string]int8{}
		for _, h := range hints {
			parts := strings.SplitN(h, "=", 2)
			if len(parts) != 2 {
				fmt.Fprintf(os.Stderr, "axcel: bad hint %q\n", h)
				os.Exit(2)
			}
			n, err := strconv.Atoi(parts[1])
			if err != nil {
				fmt.Fprintf(os.Stderr, "axcel: bad hint %q: %v\n", h, err)
				os.Exit(2)
			}
			opts.Hints.ReturnValSize[parts[0]] = int8(n)
		}
	}

	if *report {
		rep, err := core.Analyze(f, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "axcel:", err)
			os.Exit(1)
		}
		fmt.Printf("procedures: %d (%d with known result sizes)\n", rep.Procs, rep.KnownResults)
		fmt.Printf("instructions: %d (+%d table words)\n", rep.Instrs, rep.Tables)
		fmt.Printf("overflow traps possible: %v\n", rep.TrapsPossible)
		fmt.Printf("calls needing run-time RP checks: %d\n", rep.CheckedCalls)
		if len(rep.GuessedProcs) > 0 {
			// The Accelerator "points out subroutines that may benefit
			// from hints".
			fmt.Printf("result sizes guessed (consider -hint name=words): %s\n",
				strings.Join(rep.GuessedProcs, ", "))
		}
		for a, why := range rep.PuzzleSites {
			fmt.Printf("puzzle point at %d: %s\n", a, why)
		}
		return
	}

	translated := false
	if *remoteURL != "" {
		// Remote-first: the service's output is byte-identical to a local
		// translation of the same key, so any failure — network, auth, a
		// failed remote translation — costs availability only; translate
		// locally and move on.
		cl := xlate.NewClient(*remoteURL, *token)
		if err := cl.Accelerate(f, opts); err != nil {
			fmt.Fprintf(os.Stderr, "axcel: remote translation failed (%v); translating locally\n", err)
		} else {
			translated = true
			if *stats {
				fmt.Printf("remote:           %s\n", *remoteURL)
			}
		}
	}
	switch {
	case translated: // served remotely, locally re-verified
	case *cacheDir != "":
		c, err := tcache.Open(*cacheDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "axcel:", err)
			os.Exit(1)
		}
		hit, err := c.Accelerate(f, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "axcel:", err)
			os.Exit(1)
		}
		if *stats {
			fmt.Printf("cache:            %s\n", map[bool]string{true: "hit", false: "miss"}[hit])
		}
	default:
		if err := core.Accelerate(f, opts); err != nil {
			fmt.Fprintln(os.Stderr, "axcel:", err)
			os.Exit(1)
		}
	}
	if *stats {
		s := f.Accel.Stats
		fmt.Printf("level:            %s\n", f.Accel.Level)
		fmt.Printf("TNS instructions: %d (+%d table words)\n", s.TNSInstrs, s.TableWords)
		fmt.Printf("RISC inline:      %d (%.2f per TNS instruction)\n",
			s.RISCInstrs, float64(s.RISCInstrs)/float64(s.TNSInstrs))
		fmt.Printf("dynamic size:     %.2fx (2i + 0.75)\n",
			2*float64(s.RISCInstrs)/float64(s.TNSInstrs)+0.75)
		fmt.Printf("RP checks:        %d\n", s.RPChecks)
		fmt.Printf("guessed procs:    %d\n", s.GuessedProcs)
		fmt.Printf("puzzle points:    %d\n", s.PuzzlePoints)
		fmt.Printf("flag ops elided:  %d\n", s.ElidedFlagOps)
		fmt.Printf("delay slots used: %d (%d welded statements)\n",
			s.FilledSlots, s.WeldedStmts)
	}
	dst := *out
	if dst == "" {
		dst = flag.Arg(0)
	}
	w, err := os.Create(dst)
	if err != nil {
		fmt.Fprintln(os.Stderr, "axcel:", err)
		os.Exit(1)
	}
	defer w.Close()
	if _, err := f.WriteTo(w); err != nil {
		fmt.Fprintln(os.Stderr, "axcel:", err)
		os.Exit(1)
	}
}

func mustRead(path string) *codefile.File {
	r, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "axcel:", err)
		os.Exit(1)
	}
	defer r.Close()
	f, err := codefile.Read(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "axcel: %s: %v\n", path, err)
		if codefile.IsCorrupt(err) {
			os.Exit(3)
		}
		os.Exit(1)
	}
	return f
}
