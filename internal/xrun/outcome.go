package xrun

import (
	"fmt"
	"slices"

	"tnsr/internal/interp"
	"tnsr/internal/obs"
)

// Outcome is what a finished run leaves that the paper's fidelity
// contract holds fixed: translated code "calculates the same answers as
// the TNS code, and does exactly the same sequence of stores into
// memory". Every differential oracle compares its runs through Check.
type Outcome struct {
	Halted     bool
	Trap       int
	TrapP      uint16 // where the trap fired; reported, not compared
	ExitStatus uint16
	Console    string
	Mem        []uint16 // the TNS data space; aliases the run's memory
}

// Interpret runs m, a pure-interpreter machine, to a halt and returns its
// outcome, the reference the other runs are checked against. It fails if
// m does not halt within budget instructions. m stays readable (its
// execution profile prices the CISC machines); the outcome's Mem aliases
// m.Mem.
func Interpret(m *interp.Machine, budget int64) (*Outcome, error) {
	if err := m.Run(budget); err != nil {
		return nil, fmt.Errorf("reference run did not halt: %w", err)
	}
	return machineOutcome(m), nil
}

// machineOutcome returns the outcome m holds; Mem aliases m.Mem.
func machineOutcome(m *interp.Machine) *Outcome {
	return &Outcome{Halted: m.Halted, Trap: m.Trap, TrapP: m.TrapP,
		ExitStatus: m.ExitStatus, Console: m.Console.String(), Mem: m.Mem}
}

// Outcome returns the runner's outcome. Read it only after Run has
// returned; Mem aliases Int.Mem, which Release keeps, and is not copied.
func (r *Runner) Outcome() *Outcome {
	return &Outcome{Halted: r.Halted, Trap: r.Trap, TrapP: r.TrapP,
		ExitStatus: r.ExitStatus, Console: r.Console(), Mem: r.Int.Mem}
}

// Check holds got to the reference o: the same halt state, trap, exit
// status and console output, and, when the reference did not trap, the
// same value in every data word (memory at a trap may legitimately differ
// midway through a statement). The error names the first field that
// differs.
func (o *Outcome) Check(got *Outcome) error {
	if got.Halted != o.Halted {
		return fmt.Errorf("halted: got %v, want %v", got.Halted, o.Halted)
	}
	if got.Trap != o.Trap {
		return fmt.Errorf("trap: got %d at %d, want %d at %d", got.Trap, got.TrapP, o.Trap, o.TrapP)
	}
	if got.ExitStatus != o.ExitStatus {
		return fmt.Errorf("exit status: got %d, want %d", got.ExitStatus, o.ExitStatus)
	}
	if got.Console != o.Console {
		return fmt.Errorf("console: got %q, want %q", got.Console, o.Console)
	}
	if o.Trap != 0 || slices.Equal(got.Mem, o.Mem) {
		return nil
	}
	for i := range min(len(got.Mem), len(o.Mem)) {
		if got.Mem[i] != o.Mem[i] {
			return fmt.Errorf("memory: word %d is %#04x, want %#04x", i, got.Mem[i], o.Mem[i])
		}
	}
	return fmt.Errorf("memory: %d words, want %d", len(got.Mem), len(o.Mem))
}

// CheckAccounting enforces the telemetry invariants on a run observed by
// rec: no unclassified escape, and the recorder's totals agreeing exactly
// with the runner's own accounting in both modes.
func CheckAccounting(r *Runner, rec *obs.Recorder) error {
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
