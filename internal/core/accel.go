package core

import (
	"fmt"
	"time"

	"tnsr/internal/codefile"
	"tnsr/internal/pgo"
)

// Accelerate translates a TNS codefile in place, attaching the acceleration
// section (RISC code, PMap, entry table, statistics). It is the top-level
// Accelerator: invoked explicitly, post-compilation, needing no information
// from the user — hints are optional tuning, exactly as the paper insists.
//
// The analysis phases run once; procedure translation then fans out to
// opts.Workers workers (see parallel.go). The emitted section is
// byte-identical for every worker count. opts is taken by value and
// defaulted through a private copy: the caller's struct is never written to.
func Accelerate(file *codefile.File, opts Options) error {
	opts = opts.withDefaults()
	if len(file.Procs) == 0 {
		return fmt.Errorf("core: codefile %q has no procedures", file.Name)
	}
	applyProfile(file, &opts)

	// Phase timings flow to opts.Obs when attached; with a nil recorder
	// the mark closure reduces to one comparison per phase.
	var t0 time.Time
	if opts.Obs != nil {
		t0 = time.Now()
	}
	mark := func(name string) {
		if opts.Obs != nil {
			now := time.Now()
			opts.Obs.Phase(name, now.Sub(t0))
			t0 = now
		}
	}

	p, err := analyze(file, &opts)
	if err != nil {
		return err
	}
	mark("analyze")
	p.resolveRP()
	mark("rp")
	p.liveness()
	mark("liveness")

	f, stats, err := translate(p, &opts)
	if err != nil {
		return err
	}
	if opts.Obs != nil {
		t0 = time.Now() // translate times itself (see parallel.go)
	}

	// The delay-slot scheduler models the default target's pipeline; a
	// backend without delay slots gets the raw stream (its encoder drops
	// the explicit slot nops instead).
	if !opts.DisableSchedule && opts.Backend.Traits().DelaySlots {
		ss := schedule(f)
		stats.FilledSlots = ss.filledSlots
		stats.WeldedStmts = ss.welded
		mark("schedule")
	}
	sec, err := finalizeSection(p, &opts, f, stats)
	if err != nil {
		return err
	}
	mark("finalize")
	file.Accel = sec
	return nil
}

// AcceleratePair translates Pristine copies of a program's user codefile
// and its system library (nil for a program without one) and returns
// them; user and lib are not written. Both translate under opts, except
// that the library goes to code space 1 and the user file takes the
// library's result-size summaries (codefile.File.Summaries): the library
// is translated on its own, and calls into it with its descriptions. The
// Space, CodeBase and LibSummaries in opts are ignored. Each translation
// goes through accel: Accelerate, or a stand-in with its contract, such as
// the retranslation cache or the translation service.
func AcceleratePair(user, lib *codefile.File, opts Options,
	accel func(*codefile.File, Options) error) (*codefile.File, *codefile.File, error) {
	opts.CodeBase = 0 // withDefaults derives it from Space
	u, l := user.Pristine(), lib.Pristine()
	userOpts := opts
	userOpts.Space, userOpts.LibSummaries = 0, lib.Summaries()
	if err := accel(u, userOpts); err != nil {
		return nil, nil, err
	}
	if l != nil {
		opts.Space, opts.LibSummaries = 1, nil
		if err := accel(l, opts); err != nil {
			return nil, nil, fmt.Errorf("library: %w", err)
		}
	}
	return u, l, nil
}

// applyProfile gates and expands the attached PGO profile on the private
// options copy. A profile captured against a different build of the
// codefile (fingerprint mismatch) is dropped entirely — stale advice must
// degrade to no advice. With a surviving profile and ProfileCover set,
// translation is restricted to the hottest procedures covering that
// fraction of the observed residency weight, always including main.
func applyProfile(file *codefile.File, opts *Options) {
	if opts.Profile == nil {
		return
	}
	if !opts.Profile.Matches(pgo.SpaceName(opts.Space), file.Fingerprint()) {
		opts.Profile = nil
		return
	}
	if opts.ProfileCover > 0 && opts.SelectProcs == nil {
		hot := opts.Profile.HotProcs(pgo.SpaceName(opts.Space), opts.ProfileCover)
		if len(hot) > 0 {
			sel := make(map[string]bool, len(hot)+1)
			for _, name := range hot {
				sel[name] = true
			}
			if int(file.MainPEP) < len(file.Procs) {
				sel[file.Procs[file.MainPEP].Name] = true
			}
			opts.SelectProcs = sel
		}
	}
}

// AnalysisReport summarizes the static analysis of a codefile without
// translating it: how many procedures needed guessed result sizes, which
// sites fall into interpreter mode, and whether hints would help — the
// Accelerator "points out subroutines that may benefit from hints".
type AnalysisReport struct {
	Procs          int
	KnownResults   int
	GuessedProcs   []string
	PuzzleSites    map[uint16]string
	CheckedCalls   int
	TrapsPossible  bool
	Instrs, Tables int
}

// Analyze runs the Accelerator's analysis phases only.
func Analyze(file *codefile.File, opts Options) (*AnalysisReport, error) {
	opts = opts.withDefaults()
	applyProfile(file, &opts)
	p, err := analyze(file, &opts)
	if err != nil {
		return nil, err
	}
	p.resolveRP()
	p.liveness()
	rep := &AnalysisReport{
		Procs:         len(file.Procs),
		PuzzleSites:   p.puzzle,
		TrapsPossible: p.trapsPossible,
	}
	rep.Instrs, rep.Tables = p.countKinds()
	for i := range file.Procs {
		if p.resultWords[i] >= 0 {
			rep.KnownResults++
		}
		if p.guessedProc[i] {
			rep.GuessedProcs = append(rep.GuessedProcs, file.Procs[i].Name)
		}
	}
	for _, cs := range p.callSites {
		if cs.checked {
			rep.CheckedCalls++
		}
	}
	return rep, nil
}
