package main

import (
	"fmt"

	"tnsr/internal/bench"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/risc"
	"tnsr/internal/workloads"
	"tnsr/internal/xrun"
)

// simRow is one program translated at one level for one backend and run
// once on its simulator: the raw material of the simulated-clock metrics.
type simRow struct {
	name      string
	tnsExec   int64   // TNS instructions the interpreter executes for the program
	cycles    float64 // simulated cycles of the accelerated run (RISC + interludes)
	interpCyc float64 // the part spent in interpreter interludes
	stats     codefile.AccelStats
}

// simFigures are the simulated-clock metrics over a set of rows.
type simFigures struct {
	cyclesPerTNS float64 // geometric mean of cycles / TNS instructions executed
	interpPct    float64 // interlude cycles / all cycles, summed over rows
	expansion    float64 // geometric mean of RISC / TNS instructions translated
	sums         codefile.AccelStats
}

func simMetrics(rows []simRow) (simFigures, error) {
	var f simFigures
	var cpt, exp []float64
	var cyc, icyc float64
	for _, r := range rows {
		if r.tnsExec <= 0 || r.stats.TNSInstrs <= 0 {
			return f, fmt.Errorf("sim row %s: no TNS instructions", r.name)
		}
		cpt = append(cpt, r.cycles/float64(r.tnsExec))
		exp = append(exp, float64(r.stats.RISCInstrs)/float64(r.stats.TNSInstrs))
		cyc += r.cycles
		icyc += r.interpCyc
		f.sums.RPChecks += r.stats.RPChecks
		f.sums.PuzzlePoints += r.stats.PuzzlePoints
		f.sums.FilledSlots += r.stats.FilledSlots
	}
	var err error
	if f.cyclesPerTNS, err = geomean(cpt); err != nil {
		return f, err
	}
	if f.expansion, err = geomean(exp); err != nil {
		return f, err
	}
	if cyc > 0 {
		f.interpPct = 100 * icyc / cyc
	}
	return f, nil
}

// addStats sums the translation statistics of a user and library pair.
func addStats(user, lib *codefile.File) codefile.AccelStats {
	st := user.Accel.Stats
	if lib != nil && lib.Accel != nil {
		ls := lib.Accel.Stats
		st.TNSInstrs += ls.TNSInstrs
		st.RISCInstrs += ls.RISCInstrs
		st.RPChecks += ls.RPChecks
		st.PuzzlePoints += ls.PuzzlePoints
		st.FilledSlots += ls.FilledSlots
	}
	return st
}

// reference is the interpreter's behaviour on a pristine program.
type reference struct {
	console string
	exit    uint16
	trap    int
	instrs  int64
}

func interpret(user, lib *codefile.File, budget int64) (reference, error) {
	m := interp.New(user, lib)
	if err := m.Run(budget); err != nil {
		return reference{}, err
	}
	if !m.Halted {
		return reference{}, fmt.Errorf("reference run did not halt within %d instructions", budget)
	}
	return reference{console: m.Console.String(), exit: m.ExitStatus, trap: m.Trap, instrs: m.Prof.Instrs}, nil
}

// runRow executes an accelerated pair on the Cyclone/R timing model and
// checks it against the interpreter reference.
func runRow(name string, user, lib *codefile.File, ref reference) (simRow, error) {
	r, err := xrun.New(user, lib, risc.DefaultConfig())
	if err != nil {
		return simRow{}, fmt.Errorf("%s: %w", name, err)
	}
	if err := r.Run(4_000_000_000); err != nil {
		return simRow{}, fmt.Errorf("%s: %w", name, err)
	}
	if !r.Halted || r.Console() != ref.console || r.ExitStatus != ref.exit || r.Trap != ref.trap {
		return simRow{}, fmt.Errorf("%s: output differs from the interpreter", name)
	}
	total, _, interlude := r.Cycles()
	return simRow{name: name, tnsExec: ref.instrs, cycles: total, interpCyc: interlude,
		stats: addStats(user, lib)}, nil
}

// accelFunc translates f in place under opts.
type accelFunc func(f *codefile.File, opts core.Options) error

// paperRows builds the 30 benchtab rows: the five paper programs at
// benchtab's iteration counts, at every level, for both backends,
// translated by accel.
func paperRows(accel accelFunc) ([]simRow, error) {
	var rows []simRow
	for _, name := range workloads.Names {
		w, err := workloads.Build(name, bench.Iterations[name])
		if err != nil {
			return nil, err
		}
		ref, err := interpret(w.User, w.Lib, 2_000_000_000)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for _, be := range backends() {
			for _, lvl := range bench.Levels {
				user, lib := pristine(w.User), pristine(w.Lib)
				if err := accel(user, userOpts(w.LibSummaries, lvl, be)); err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				if lib != nil {
					if err := accel(lib, libOpts(lvl, be)); err != nil {
						return nil, fmt.Errorf("%s lib: %w", name, err)
					}
				}
				row, err := runRow(fmt.Sprintf("%s/%s/%s", name, be.Name(), lvl), user, lib, ref)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// pristine is a shallow copy of f without its acceleration section; the
// code and tables are shared read-only, as the fleet shares its image.
func pristine(f *codefile.File) *codefile.File {
	if f == nil {
		return nil
	}
	c := *f
	c.Accel = nil
	return &c
}
