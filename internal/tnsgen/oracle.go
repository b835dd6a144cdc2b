package tnsgen

import (
	"fmt"
	"math/rand"

	"tnsr/internal/backend"
	"tnsr/internal/chaos"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/millicode"
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
	// Workers is the translator worker count (0 = serial).
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
	return OracleOptions{
		Levels: []codefile.AccelLevel{
			codefile.LevelStmtDebug, codefile.LevelDefault, codefile.LevelFast,
		},
		InterpBudget: 3_000_000,
		RunBudget:    20_000_000,
	}
}

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

	// The reference: pure interpretation of the unaccelerated program.
	ref, refLib, _, err := o.assemble(s)
	if err != nil {
		return res, err
	}
	m := interp.New(ref, refLib)
	m.Run(o.InterpBudget)
	if !m.Halted {
		return res, fmt.Errorf("reference run did not halt within %d instructions", o.InterpBudget)
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
			if err := o.pass(s, m, lvl, be, nil, false, res); err != nil {
				return res, fmt.Errorf("backend %s level %s: %w", name, lvl, err)
			}
			if len(s.Cold) > 0 {
				sel := selectWarm(ref, s.Cold)
				if err := o.pass(s, m, lvl, be, sel, false, res); err != nil {
					return res, fmt.Errorf("backend %s level %s (selective): %w", name, lvl, err)
				}
			}
			if s.WantBreak {
				if err := o.pass(s, m, lvl, be, nil, true, res); err != nil {
					return res, fmt.Errorf("backend %s level %s (breakpointed): %w", name, lvl, err)
				}
			}
		}
	}
	if o.Adaptive {
		if err := o.adaptive(s, m, res); err != nil {
			return res, fmt.Errorf("adaptive: %w", err)
		}
	}
	if o.Chaos > 0 {
		if err := o.chaos(s, res); err != nil {
			return res, fmt.Errorf("chaos: %w", err)
		}
	}
	return res, nil
}

// assemble parses fresh codefiles for the subject and derives the library
// SCAL summaries from the assembled RESULT declarations.
func (o *OracleOptions) assemble(s *Subject) (user, lib *codefile.File, libSummaries map[uint16]int8, err error) {
	user, err = tnsasm.Assemble(s.Name, s.User)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("assemble user: %w", err)
	}
	if s.Lib != "" {
		lib, err = tnsasm.Assemble(s.Name+"-lib", s.Lib)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("assemble lib: %w", err)
		}
		libSummaries = map[uint16]int8{}
		for i, p := range lib.Procs {
			libSummaries[uint16(i)] = p.ResultWords
		}
	}
	return user, lib, libSummaries, nil
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

// pass runs one accelerated configuration and compares it against the
// reference machine.
func (o *OracleOptions) pass(s *Subject, m *interp.Machine, lvl codefile.AccelLevel,
	be backend.Backend, sel map[string]bool, withBreak bool, res *Result) error {

	user, lib, libSummaries, err := o.assemble(s)
	if err != nil {
		return err
	}
	rec := obs.NewRecorder()
	if lib != nil {
		libOpts := core.Options{Level: lvl, Workers: o.Workers, Backend: be,
			CodeBase: millicode.LibCodeBase, Space: 1, Obs: rec}
		if err := core.Accelerate(lib, libOpts); err != nil {
			return fmt.Errorf("accelerate lib: %w", err)
		}
	}
	opts := core.Options{Level: lvl, Workers: o.Workers, Backend: be,
		LibSummaries: libSummaries, SelectProcs: sel, Obs: rec}
	if err := core.Accelerate(user, opts); err != nil {
		return fmt.Errorf("accelerate: %w", err)
	}

	r, err := xrun.New(user, lib, simConfig())
	if err != nil {
		return err
	}
	err = o.check(m, r, rec, withBreak, res)
	// Reached only when check returned: a pass that panicked leaves its
	// simulator memory to the garbage collector.
	r.Release()
	return err
}

// check runs one pass's runner, observed by rec, and compares it against
// the reference machine.
func (o *OracleOptions) check(m *interp.Machine, r *xrun.Runner, rec *obs.Recorder,
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

	if err := compare(m, r); err != nil {
		return err
	}
	if err := checkAccounting(r, rec); err != nil {
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

// compare checks the paper's fidelity contract between the reference
// interpreter and a completed mixed-mode run: halt state, trap, exit
// status, console output, and (trap-free runs) every word of data memory.
func compare(m *interp.Machine, r *xrun.Runner) error {
	if m.Halted != r.Halted {
		return fmt.Errorf("halted: interp=%v accel=%v", m.Halted, r.Halted)
	}
	if m.Trap != r.Trap {
		return fmt.Errorf("trap: interp=%d accel=%d (at %d vs %d)",
			m.Trap, r.Trap, m.TrapP, r.TrapP)
	}
	if m.Trap == 0 && m.ExitStatus != r.ExitStatus {
		return fmt.Errorf("exit status: interp=%d accel=%d", m.ExitStatus, r.ExitStatus)
	}
	if got, want := r.Console(), m.Console.String(); got != want {
		return fmt.Errorf("console: accel=%q interp=%q", got, want)
	}
	if m.Trap != 0 {
		return nil // memory at trap time may legitimately differ midway
	}
	for i := range m.Mem {
		if m.Mem[i] != r.Int.Mem[i] {
			return fmt.Errorf("memory differs at word %d: interp=%04x accel=%04x",
				i, m.Mem[i], r.Int.Mem[i])
		}
	}
	return nil
}

// checkAccounting enforces the telemetry invariants on an observed run:
// no unclassified escape, and the recorder's totals agreeing exactly with
// the runner's own accounting in both modes.
func checkAccounting(r *xrun.Runner, rec *obs.Recorder) error {
	if n := rec.Escapes[obs.EscapeUnknown]; n != 0 {
		return fmt.Errorf("%d escapes with Unknown reason (histogram %v)", n, rec.Escapes)
	}
	if rec.InterpEntries != int64(r.Interludes) {
		return fmt.Errorf("interp entries: obs=%d runner=%d", rec.InterpEntries, r.Interludes)
	}
	if rec.InterpInstrs != r.InterludeProf.Instrs {
		return fmt.Errorf("interp instrs: obs=%d runner=%d", rec.InterpInstrs, r.InterludeProf.Instrs)
	}
	if rec.RISCInstrs != r.Sim.Instrs {
		return fmt.Errorf("risc instrs: obs=%d sim=%d", rec.RISCInstrs, r.Sim.Instrs)
	}
	rep := r.Report(rec)
	var procRISC, procInterp int64
	for _, p := range rep.Procs {
		procRISC += p.RISCInstrs
		procInterp += p.InterpInstrs
	}
	if procRISC != rec.RISCInstrs || procInterp != rec.InterpInstrs {
		return fmt.Errorf("per-proc sums: risc %d/%d interp %d/%d",
			procRISC, rec.RISCInstrs, procInterp, rec.InterpInstrs)
	}
	if err := obs.Validate(rep); err != nil {
		return fmt.Errorf("report validation: %w", err)
	}
	return nil
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
// cycle: both passes must match the reference, and the retranslation must
// never increase the total escape count (the profile only ever confirms
// guesses, so pass 2 escapes at most where pass 1 did).
func (o *OracleOptions) adaptive(s *Subject, m *interp.Machine, res *Result) error {
	user, lib, libSummaries, err := o.assemble(s)
	if err != nil {
		return err
	}
	a, err := xrun.RunAdaptive(user, lib, libSummaries,
		codefile.LevelDefault, o.Workers, o.RunBudget, simConfig())
	if err != nil {
		return err
	}
	for pass, r := range []*xrun.Runner{a.First, a.Second} {
		if err := compare(m, r); err != nil {
			return fmt.Errorf("pass %d: %w", pass+1, err)
		}
	}
	if err := checkAccounting(a.First, a.FirstObs); err != nil {
		return fmt.Errorf("pass 1: %w", err)
	}
	if err := checkAccounting(a.Second, a.SecondObs); err != nil {
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
// run with output identical to the pristine interpreter.
func (o *OracleOptions) chaos(s *Subject, res *Result) error {
	user, lib, libSummaries, err := o.assemble(s)
	if err != nil {
		return err
	}
	ref, err := chaos.NewReferenceFromFiles(s.Name, user, lib, libSummaries, o.RunBudget)
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
