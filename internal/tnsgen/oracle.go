package tnsgen

import (
	"fmt"
	"math/rand"

	"tnsr/internal/backend"
	"tnsr/internal/chaos"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/obs"
	"tnsr/internal/risc"
	"tnsr/internal/tnsasm"
	"tnsr/internal/xrun"
)

// Subject is a program reduced to what the oracle needs: rendered sources
// plus the oracle directives. Corpus scenarios deserialize straight into
// Subjects, so replay does not depend on the generator's chunk structure.
type Subject struct {
	Name      string
	User      string
	Lib       string // "" for single-file programs
	Cold      []string
	WantBreak bool
}

// Subject renders the program for the oracle.
func (p *Program) Subject() *Subject {
	return &Subject{
		Name:      p.Name,
		User:      p.UserSource(),
		Lib:       p.LibSource(),
		Cold:      append([]string(nil), p.Cold...),
		WantBreak: p.WantBreak,
	}
}

// OracleOptions configures RunOracle.
type OracleOptions struct {
	// Levels are the acceleration levels to test; default all three.
	Levels []codefile.AccelLevel
	// Backends are the RISC targets to hold to the reference; nil means
	// the default target only. Every level (and the selective and
	// breakpointed variants) runs once per backend, so a generated
	// program that exposes a target-specific lowering bug fails naming
	// the backend it diverged on.
	Backends []backend.Backend
	// Workers is the translator worker count, passed to core.Options:
	// 0 means GOMAXPROCS workers, 1 the serial pipeline.
	Workers int
	// InterpBudget and RunBudget bound the reference and accelerated runs.
	InterpBudget int64
	RunBudget    int64
	// Adaptive additionally runs the program through xrun.RunAdaptive
	// (capture -> retranslate -> rerun) and requires identical output and
	// no escape increase between the passes.
	Adaptive bool
	// Chaos, when positive, builds a chaos reference from the program and
	// checks that many mutants (round-robin over every operator) against
	// the integrity contract.
	Chaos     int
	ChaosSeed int64
}

// DefaultOracle returns the options the campaign and tests use: all three
// levels, the fidelity-test budgets, no adaptive or chaos extras.
func DefaultOracle() OracleOptions {
	var o OracleOptions
	o.fill()
	return o
}

// fill sets every unset level list and budget to its default.
func (o *OracleOptions) fill() {
	if len(o.Levels) == 0 {
		o.Levels = []codefile.AccelLevel{
			codefile.LevelStmtDebug, codefile.LevelDefault, codefile.LevelFast,
		}
	}
	if o.InterpBudget == 0 {
		o.InterpBudget = 3_000_000
	}
	if o.RunBudget == 0 {
		o.RunBudget = 20_000_000
	}
}

// Result reports one oracle verdict: the coverage the program contributed
// and how many differential passes ran.
type Result struct {
	Coverage Coverage
	// Passes counts completed differential runs (levels x modes, plus the
	// two adaptive passes when enabled).
	Passes int
	// BPHits counts breakpoint round-trips across the breakpointed passes.
	BPHits int
	// ChaosMutants counts mutants checked against the integrity contract.
	ChaosMutants int
}

// simConfig matches the fidelity tests' simulator latencies.
func simConfig() risc.Config { return risc.Config{MulLatency: 12, DivLatency: 35} }

// RunOracle runs the subject interpreted (the reference) and accelerated
// at every requested level — plus a selective-acceleration pass when the
// subject has cold procedures, a breakpointed pass when it asks for one,
// and the adaptive/chaos extras when enabled — and returns an error on any
// divergence, panic, accounting mismatch, or EscapeUnknown occurrence.
func RunOracle(s *Subject, o OracleOptions) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	o.fill()
	res = &Result{}
	a, err := assemble(s)
	if err != nil {
		return res, err
	}
	return res, o.run(s, a, res)
}

// assembly is a subject's codefiles, assembled once per oracle run: the
// reference, every pass, the adaptive cycle and the chaos reference read
// them, and every translation goes into a Pristine copy, so they are never
// written.
type assembly struct {
	user, lib *codefile.File
}

// assemble assembles the subject's codefiles.
func assemble(s *Subject) (*assembly, error) {
	user, err := tnsasm.Assemble(s.Name, s.User)
	if err != nil {
		return nil, fmt.Errorf("assemble user: %w", err)
	}
	a := &assembly{user: user}
	if s.Lib != "" {
		if a.lib, err = tnsasm.Assemble(s.Name+"-lib", s.Lib); err != nil {
			return nil, fmt.Errorf("assemble lib: %w", err)
		}
	}
	return a, nil
}

// run is the oracle over one assembly of the subject.
func (o *OracleOptions) run(s *Subject, a *assembly, res *Result) error {
	// The reference: pure interpretation of the unaccelerated program.
	want, err := xrun.Interpret(interp.New(a.user, a.lib), o.InterpBudget)
	if err != nil {
		return err
	}

	backends := o.Backends
	if len(backends) == 0 {
		backends = []backend.Backend{nil} // the core's default target
	}
	for _, be := range backends {
		name := "default"
		if be != nil {
			name = be.Name()
		}
		for _, lvl := range o.Levels {
			if variant, err := o.level(s, a, want, be, lvl, res); err != nil {
				return fmt.Errorf("backend %s level %s%s: %w", name, lvl, variant, err)
			}
		}
	}
	if o.Adaptive {
		if err := o.adaptive(a, want, res); err != nil {
			return fmt.Errorf("adaptive: %w", err)
		}
	}
	if o.Chaos > 0 {
		if err := o.chaos(s, a, want, res); err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
	}
	return nil
}

// level runs the passes of one (backend, level): the plain pass, the
// selective pass when the subject has cold procedures, and the
// breakpointed pass when it asks for one. The library is translated once
// for all of them, the user file once per selection, and the breakpointed
// pass is a second runner of the plain pass's image. A failing pass
// returns its variant ("" for the plain pass) for the error.
func (o *OracleOptions) level(s *Subject, a *assembly, want *xrun.Outcome,
	be backend.Backend, lvl codefile.AccelLevel, res *Result) (variant string, err error) {

	accel := sharedLib()
	opts := core.Options{Level: lvl, Workers: o.Workers, Backend: be, Obs: obs.NewRecorder()}
	img, err := image(a, opts, accel)
	if err != nil {
		return "", err
	}
	if err := o.pass(want, img, opts.Obs, false, res); err != nil {
		return "", err
	}
	if len(s.Cold) > 0 {
		opts.Obs, opts.SelectProcs = obs.NewRecorder(), selectWarm(a.user, s.Cold)
		sel, err := image(a, opts, accel)
		if err != nil {
			return " (selective)", err
		}
		if err := o.pass(want, sel, opts.Obs, false, res); err != nil {
			return " (selective)", err
		}
	}
	if s.WantBreak {
		if err := o.pass(want, img, obs.NewRecorder(), true, res); err != nil {
			return " (breakpointed)", err
		}
	}
	return "", nil
}

// image translates the subject's codefiles under opts through accel and
// builds their run image.
func image(a *assembly, opts core.Options,
	accel func(*codefile.File, core.Options) error) (*xrun.Image, error) {
	user, lib, err := core.AcceleratePair(a.user, a.lib, opts, accel)
	if err != nil {
		return nil, fmt.Errorf("accelerate: %w", err)
	}
	return xrun.NewImage(user, lib, simConfig())
}

// sharedLib returns an accel for core.AcceleratePair that translates the
// library once and gives every later library that section, whatever the
// options: the passes of one (backend, level) share one library
// translation, and the selective pass runs the plain pass's library.
func sharedLib() func(*codefile.File, core.Options) error {
	var sec *codefile.AccelSection
	return func(f *codefile.File, opts core.Options) error {
		if opts.Space == 1 && sec != nil {
			f.Accel = sec
			return nil
		}
		if err := core.Accelerate(f, opts); err != nil {
			return err
		}
		if opts.Space == 1 {
			sec = f.Accel
		}
		return nil
	}
}

// selectWarm builds the SelectProcs set: every procedure except the cold
// ones.
func selectWarm(user *codefile.File, cold []string) map[string]bool {
	sel := map[string]bool{}
	for _, p := range user.Procs {
		sel[p.Name] = true
	}
	for _, c := range cold {
		delete(sel, c)
	}
	return sel
}

// pass runs one pass on a new runner of img and releases the runner once
// check returned: a pass that panicked leaves its simulator memory to the
// garbage collector.
func (o *OracleOptions) pass(want *xrun.Outcome, img *xrun.Image, rec *obs.Recorder,
	withBreak bool, res *Result) error {
	r := img.NewRunner()
	err := o.check(want, r, rec, withBreak, res)
	r.Release()
	return err
}

// check runs one pass's runner, observed by rec, and checks it against
// the reference outcome.
func (o *OracleOptions) check(want *xrun.Outcome, r *xrun.Runner, rec *obs.Recorder,
	withBreak bool, res *Result) error {
	r.Observe(rec)
	if withBreak {
		addr, ok := breakAddr(r.User)
		if !ok {
			return nil // nothing register-exact to break on; skip the pass
		}
		r.ArmBreak(0, addr)
		for !r.Halted {
			if err := r.Continue(o.RunBudget); err != nil {
				return fmt.Errorf("run (breakpointed): %w", err)
			}
			if r.BPHit {
				res.BPHits++
			}
		}
	} else {
		if err := r.Run(o.RunBudget); err != nil {
			return fmt.Errorf("run: %w", err)
		}
	}

	if err := want.Check(r.Outcome()); err != nil {
		return err
	}
	if err := xrun.CheckAccounting(r, rec); err != nil {
		return err
	}
	res.Coverage.Merge(coverageFrom(r.User, r.Lib, rec))
	res.Passes++
	return nil
}

// breakAddr finds the first mapped register-exact address that is not a
// procedure entry — a point execution crosses repeatedly.
func breakAddr(f *codefile.File) (uint16, bool) {
	if f.Accel == nil {
		return 0, false
	}
	entries := map[uint16]bool{}
	for _, p := range f.Procs {
		entries[p.Entry] = true
	}
	for a := 0; a < len(f.Code); a++ {
		if _, re, ok := f.Accel.PMap.Lookup(uint16(a)); ok && re && !entries[uint16(a)] {
			return uint16(a), true
		}
	}
	return 0, false
}

// coverageFrom folds one observed run into a coverage sample.
func coverageFrom(user, lib *codefile.File, rec *obs.Recorder) *Coverage {
	cov := &Coverage{}
	for i := range rec.Escapes {
		cov.Runtime[i] += rec.Escapes[i]
	}
	for _, f := range []*codefile.File{user, lib} {
		if f == nil || f.Accel == nil {
			continue
		}
		for _, why := range f.Accel.FallbackWhy {
			if why < uint8(obs.NumEscapeReasons) {
				cov.Static[why]++
			}
		}
	}
	for _, ph := range rec.Report().Phases {
		cov.addPhase(ph.Phase)
	}
	return cov
}

// sumEscapes totals an escape histogram.
func sumEscapes(h [obs.NumEscapeReasons]int64) int64 {
	var n int64
	for _, v := range h {
		n += v
	}
	return n
}

// adaptive pushes the subject through the capture -> retranslate -> rerun
// cycle and checks both passes, then releases their runners. A cycle that
// panicked leaves its simulator memories to the garbage collector.
func (o *OracleOptions) adaptive(a *assembly, want *xrun.Outcome, res *Result) error {
	cyc, err := xrun.RunAdaptive(a.user, a.lib, xrun.AdaptiveOptions{
		Level: codefile.LevelDefault, Workers: o.Workers, Budget: o.RunBudget,
		Config: simConfig(),
	})
	if err != nil {
		return err
	}
	err = checkAdaptive(want, cyc, res)
	cyc.First.Release()
	cyc.Second.Release()
	return err
}

// checkAdaptive requires both passes of an adaptive cycle to match the
// reference, and the retranslation never to increase the total escape
// count (the profile only ever confirms guesses, so pass 2 escapes at
// most where pass 1 did).
func checkAdaptive(want *xrun.Outcome, a *xrun.AdaptiveResult, res *Result) error {
	for pass, r := range []*xrun.Runner{a.First, a.Second} {
		if err := want.Check(r.Outcome()); err != nil {
			return fmt.Errorf("pass %d: %w", pass+1, err)
		}
	}
	if err := xrun.CheckAccounting(a.First, a.FirstObs); err != nil {
		return fmt.Errorf("pass 1: %w", err)
	}
	if err := xrun.CheckAccounting(a.Second, a.SecondObs); err != nil {
		return fmt.Errorf("pass 2: %w", err)
	}
	e1, e2 := sumEscapes(a.FirstObs.Escapes), sumEscapes(a.SecondObs.Escapes)
	if e2 > e1 {
		return fmt.Errorf("retranslation increased escapes: pass1=%d pass2=%d (%v vs %v)",
			e1, e2, a.FirstObs.Escapes, a.SecondObs.Escapes)
	}
	res.Coverage.Merge(coverageFrom(a.First.User, a.First.Lib, a.FirstObs))
	res.Coverage.Merge(coverageFrom(a.Second.User, a.Second.Lib, a.SecondObs))
	res.Passes += 2
	return nil
}

// chaos places the subject under the fault-injection harness: every mutant
// of its serialized accelerated image must be rejected typed at load or
// run with output identical to want, the pristine interpreter's.
func (o *OracleOptions) chaos(s *Subject, a *assembly, want *xrun.Outcome, res *Result) error {
	ref, err := chaos.NewReferenceFromFiles(s.Name, a.user, a.lib, want)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(o.ChaosSeed))
	for i := 0; i < o.Chaos; i++ {
		op := chaos.Op(i % int(chaos.NumOps))
		mu, err := ref.Mutate(rng, op)
		if err != nil {
			return fmt.Errorf("mutant %d (%s): %w", i, op, err)
		}
		if _, err := ref.Check(mu, o.RunBudget); err != nil {
			return fmt.Errorf("mutant %d (%s): %w", i, op, err)
		}
		res.ChaosMutants++
	}
	return nil
}
