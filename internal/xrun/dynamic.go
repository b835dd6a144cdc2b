package xrun

import (
	"fmt"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/machine"
	"tnsr/internal/risc"
	"tnsr/internal/tns"
)

// Dynamic translation — the alternative the paper describes ("run the
// program until the puzzle point is reached ... and then dynamically
// generate new code before resuming", the Insignia SoftPC / IBM MIMIC
// style) and explains why Tandem chose static translation instead: the
// translation algorithms cost significant time and memory, and Tandem
// machines run applications for months, so paying translation up front
// wins. This implementation interprets until procedures get hot, then
// translates the hot set and hands the running machine over to mixed-mode
// execution, charging a modeled translation cost per TNS word translated.

// TranslateCyclesPerWord models the Accelerator's own cost on the
// Cyclone/R: cycles spent per TNS code word translated (an optimizing
// compiler runs thousands of cycles per input instruction).
const TranslateCyclesPerWord = 4000

// DynamicResult reports a dynamic-translation run.
type DynamicResult struct {
	// Cycles breakdown on the Cyclone/R.
	InterpCycles    float64 // interpreted phase (before/without translation)
	RunnerCycles    float64 // mixed-mode execution after hand-off
	TranslateCycles float64 // modeled translation work
	Retranslations  int
	HotProcs        []string
	// Outcome is what the run left, for Check against a reference. Mem
	// aliases the live interpreter machine's memory.
	Outcome *Outcome
}

// Total returns the complete cost.
func (d *DynamicResult) Total() float64 {
	return d.InterpCycles + d.RunnerCycles + d.TranslateCycles
}

// RunDynamic executes user/lib with lazy translation: interpret, count
// procedure entries, translate procedures that reach the hotness threshold,
// and hand over. The codefiles must be unaccelerated. workers is the
// translation worker count (0 means all CPUs): dynamic translation happens
// while the program is stopped, so parallel translation directly shortens
// the pause, and — the pipeline being deterministic — changes nothing else.
func RunDynamic(user, lib *codefile.File, threshold int, level codefile.AccelLevel,
	workers int, budget int64) (*DynamicResult, error) {
	res := &DynamicResult{}
	m := interp.New(user, lib)
	procOf := [2][]int32{user.ProcOf(), lib.ProcOf()}
	counts := map[uint32]int{} // space<<16|entry -> calls
	hot := map[string]bool{}

	im := &machine.CycloneRInterp
	var steps int64
	newlyHot := false
	for !m.Halted {
		if steps >= budget {
			return nil, fmt.Errorf("xrun: dynamic run exceeded %d steps", budget)
		}
		kind := m.Step()
		steps++
		if kind == interp.TransferCall && !m.Halted {
			f := m.CodeFile(m.Space)
			key := uint32(m.Space)<<16 | uint32(m.P)
			counts[key]++
			if t := procOf[m.Space&1]; counts[key] == threshold && int(m.P) < len(t) && t[m.P] >= 0 {
				pi := t[m.P]
				name := f.Procs[pi].Name
				if !hot[name] {
					hot[name] = true
					newlyHot = true
					res.HotProcs = append(res.HotProcs, name)
					// Charge translation of this procedure's extent: the
					// words it owns from its entry on.
					words := 0
					for a := int(f.Procs[pi].Entry); a < len(t) && t[a] == pi; a++ {
						words++
					}
					res.TranslateCycles += float64(words) * TranslateCyclesPerWord
				}
			}
		}
		// Hand over once something is hot and we sit at a call transfer.
		if newlyHot && kind == interp.TransferCall && !m.Halted {
			res.Retranslations++
			r, err := handOff(user, lib, m, hot, level, workers)
			if err != nil {
				return nil, err
			}
			res.InterpCycles = im.Cycles(&m.Prof.Counts, m.Prof.LongUnits)
			err = r.Run(budget)
			r.Release() // keeps Int.Mem, which the outcome aliases
			if err != nil {
				return nil, err
			}
			_, riscCyc, interludeCyc := r.Cycles()
			res.RunnerCycles = riscCyc + interludeCyc
			res.Outcome = r.Outcome()
			return res, nil
		}
	}
	// Never got hot: fully interpreted.
	res.InterpCycles = im.Cycles(&m.Prof.Counts, m.Prof.LongUnits)
	res.Outcome = machineOutcome(m)
	return res, nil
}

// handOff translates the hot set into fresh codefile copies and adopts the
// live machine.
func handOff(user, lib *codefile.File, m *interp.Machine, hot map[string]bool,
	level codefile.AccelLevel, workers int) (*Runner, error) {
	tu, tl, err := core.AcceleratePair(user, lib,
		core.Options{Level: level, SelectProcs: hot, Workers: workers}, core.Accelerate)
	if err != nil {
		return nil, err
	}
	r, err := New(tu, tl, risc.DefaultConfig())
	if err != nil {
		return nil, err
	}
	// Keep the live machine but point it at the translated codefiles.
	m.User, m.Lib = tu, tl
	r.AdoptInterpreter(m)
	return r, nil
}

// StaticCost prices the static-translation strategy for comparison: full
// up-front translation of both codefiles plus the mixed-mode run, whose
// outcome it returns for Check against a reference.
func StaticCost(user, lib *codefile.File, level codefile.AccelLevel,
	budget int64) (runCycles, translateCycles float64, out *Outcome, err error) {
	tu, tl, err := core.AcceleratePair(user, lib, core.Options{Level: level}, core.Accelerate)
	if err != nil {
		return 0, 0, nil, err
	}
	translateCycles = float64(len(user.Code)) * TranslateCyclesPerWord
	if lib != nil {
		translateCycles += float64(len(lib.Code)) * TranslateCyclesPerWord
	}
	r, err := New(tu, tl, risc.DefaultConfig())
	if err != nil {
		return 0, 0, nil, err
	}
	err = r.Run(budget)
	r.Release()
	if err != nil {
		return 0, 0, nil, err
	}
	if r.Trap != tns.TrapNone {
		return 0, 0, nil, fmt.Errorf("trap %d", r.Trap)
	}
	total, _, _ := r.Cycles()
	return total, translateCycles, r.Outcome(), nil
}
