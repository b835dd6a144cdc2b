// Package bench regenerates the paper's evaluation: Table 1 (relative code
// execution speed) and its figure, Table 2 (relative cycle efficiency) and
// its figure, Table 3 (RISC instructions generated inline per CISC
// instruction), Table 4 (dynamic code-size expansion), and the headline
// scalar claims (accelerated vs. interpreted speedup, interpreter-mode
// residency, Statement Debug cost, the 11-cycle EXIT lookup).
//
// CISC hardware numbers come from pricing one interpreter execution profile
// under each machine's cost model; every RISC-side number comes from
// actually translating the workload with the Accelerator and executing the
// result on the cycle-counted simulator with interpreter fallback.
package bench

import (
	"fmt"
	"math"
	"strings"

	"tnsr/internal/backend"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/machine"
	"tnsr/internal/risc"
	"tnsr/internal/tns"
	"tnsr/internal/workloads"
	"tnsr/internal/xrun"
)

// Iterations gives each workload enough work to measure without making the
// full table slow. A run wanting other counts passes Measure its own table
// (benchtab -iters edits a copy); nothing writes this one.
var Iterations = map[string]int{
	"dhry16": 120,
	"dhry32": 120,
	"tal":    4,
	"axcel":  2,
	"et1":    30,
}

// Row holds every measurement for one workload.
type Row struct {
	Name string

	// Interpreter execution profile (one run, priced under all models).
	Prof interp.Profile

	// CISC machine times in seconds.
	CISCTime map[string]float64

	// Cyclone/R software modes: seconds of CPU time.
	InterpTime float64
	AccelTime  map[codefile.AccelLevel]float64

	// Interpreter-mode residency per level (fraction of cycles).
	InterpFrac map[codefile.AccelLevel]float64

	// Static expansion statistics per level.
	Expansion map[codefile.AccelLevel]float64 // RISC instrs per TNS instr
	DynSize   map[codefile.AccelLevel]float64 // 2i + 0.75
	Stats     map[codefile.AccelLevel]codefile.AccelStats

	// RISC pipeline detail for the Default level.
	RISCCycles float64
	RISCInstrs int64
}

// Levels in table order.
var Levels = []codefile.AccelLevel{
	codefile.LevelStmtDebug, codefile.LevelDefault, codefile.LevelFast,
}

// MeasureWorkload runs one workload through every machine and mode,
// translating for be; nil is the MIPS/R3000 default the paper's tables
// describe. A non-default target executes on its own timing model, so its
// times are not comparable to the paper's; every run's outcome is still
// checked against the interpreter's, and the row reports that target's
// expansion and residency.
func MeasureWorkload(name string, iterations int, be backend.Backend) (*Row, error) {
	row := &Row{
		Name:       name,
		CISCTime:   map[string]float64{},
		AccelTime:  map[codefile.AccelLevel]float64{},
		InterpFrac: map[codefile.AccelLevel]float64{},
		Expansion:  map[codefile.AccelLevel]float64{},
		DynSize:    map[codefile.AccelLevel]float64{},
		Stats:      map[codefile.AccelLevel]codefile.AccelStats{},
	}

	// Reference interpreter run: the execution profile prices every CISC
	// machine and the Cyclone/R software interpreter.
	w, m, want, err := interpretWorkload(name, iterations)
	if err != nil {
		return nil, err
	}
	row.Prof = m.Prof

	for _, cm := range machine.CISCModels {
		row.CISCTime[cm.Name] = cm.Seconds(cm.Cycles(&m.Prof.Counts, m.Prof.LongUnits))
	}
	im := &machine.CycloneRInterp
	row.InterpTime = im.Seconds(im.Cycles(&m.Prof.Counts, m.Prof.LongUnits))

	for _, lvl := range Levels {
		r, err := runTranslated(w, core.Options{Level: lvl, Backend: be}, want)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, lvl, err)
		}
		total, riscCyc, _ := r.Cycles()
		row.AccelTime[lvl] = total / (machine.CycloneRClockMHz * 1e6)
		row.InterpFrac[lvl] = r.InterpFraction()
		st := r.User.Accel.Stats
		if r.Lib != nil {
			ls := r.Lib.Accel.Stats
			st.TNSInstrs += ls.TNSInstrs
			st.RISCInstrs += ls.RISCInstrs
			st.TableWords += ls.TableWords
		}
		row.Stats[lvl] = st
		exp := float64(st.RISCInstrs) / float64(st.TNSInstrs)
		row.Expansion[lvl] = exp
		row.DynSize[lvl] = 2*exp + 0.75
		if lvl == codefile.LevelDefault {
			row.RISCCycles = riscCyc
			row.RISCInstrs = r.Sim.Instrs
		}
	}
	return row, nil
}

// interpretWorkload builds the workload and runs it on the interpreter. It
// returns the workload, whose codefiles every translated run translates
// copies of, the machine, whose profile prices the CISC machines, and its
// outcome, the reference every translated run is checked against. An
// unknown name is an error here.
func interpretWorkload(name string, iterations int) (*workloads.Workload, *interp.Machine, *xrun.Outcome, error) {
	w, err := workloads.Build(name, iterations)
	if err != nil {
		return nil, nil, nil, err
	}
	m := interp.New(w.User, w.Lib)
	want, err := xrun.Interpret(m, 2_000_000_000)
	if err != nil {
		return nil, nil, nil, err
	}
	if m.Trap != tns.TrapNone {
		return nil, nil, nil, fmt.Errorf("%s: trap %d at %d", name, m.Trap, m.TrapP)
	}
	return w, m, want, nil
}

// runTranslated runs w's codefiles translated under opts, as
// runAccelerated does, and checks the run's outcome against want.
func runTranslated(w *workloads.Workload, opts core.Options, want *xrun.Outcome) (*xrun.Runner, error) {
	r, err := runAccelerated(w.User, w.Lib, opts)
	if err != nil {
		return nil, err
	}
	if err := want.Check(r.Outcome()); err != nil {
		return nil, err
	}
	return r, nil
}

// runAccelerated translates user and lib under opts (core.AcceleratePair)
// and runs them in mixed mode with the Cyclone/R timing configuration,
// observed by opts.Obs when it is set. The runner's User and Lib are the
// translated copies.
func runAccelerated(user, lib *codefile.File, opts core.Options) (*xrun.Runner, error) {
	user, lib, err := core.AcceleratePair(user, lib, opts, core.Accelerate)
	if err != nil {
		return nil, err
	}
	r, err := newRunner(user, lib)
	if err != nil {
		return nil, err
	}
	if opts.Obs != nil {
		r.Observe(opts.Obs)
	}
	if err := r.Run(4_000_000_000); err != nil {
		return nil, err
	}
	if r.Trap != tns.TrapNone {
		return nil, fmt.Errorf("trap %d at %d", r.Trap, r.TrapP)
	}
	return r, nil
}

// Measure runs every workload, each for its count in iters, translating
// for be as MeasureWorkload does.
func Measure(iters map[string]int, be backend.Backend) ([]*Row, error) {
	var rows []*Row
	for _, name := range workloads.Names {
		row, err := MeasureWorkload(name, iters[name], be)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// CycloneRConfig is the simulator timing for the Cyclone/R (256 KB caches,
// as the paper notes were provisioned for translated-code expansion).
func CycloneRConfig() risc.Config { return risc.DefaultConfig() }

// --- formatting --------------------------------------------------------------

// machineRows lists Table 1/2 row labels in paper order.
var machineRows = []string{
	"CLX800", "VLX", "Cyclone",
	"Cyclone/R Interpreted",
	"A-Stmt Debug", "A-Default", "A-Fast opts",
}

// timeOf returns the execution time for a table row label.
func (r *Row) timeOf(label string) (float64, bool) {
	switch label {
	case "CLX800", "VLX", "Cyclone":
		return r.CISCTime[label], true
	case "Cyclone/R Interpreted":
		if r.Name == "et1" {
			return 0, false // the paper reports n/a for ET1 software rows
		}
		return r.InterpTime, true
	case "A-Stmt Debug":
		if r.Name == "et1" {
			return 0, false
		}
		return r.AccelTime[codefile.LevelStmtDebug], true
	case "A-Default":
		if r.Name == "et1" {
			return 0, false
		}
		return r.AccelTime[codefile.LevelDefault], true
	case "A-Fast opts":
		return r.AccelTime[codefile.LevelFast], true
	}
	return 0, false
}

func clockOf(label string) float64 {
	switch label {
	case "CLX800":
		return machine.CLX800.ClockMHz
	case "VLX":
		return machine.VLX.ClockMHz
	case "Cyclone":
		return machine.Cyclone.ClockMHz
	default:
		return machine.CycloneRClockMHz
	}
}

// Table1 renders relative code execution speed (CLX 800 = 1.00).
func Table1(rows []*Row) string {
	return relTable(rows, "Relative code execution speed (CLX 800 = 1.00; bigger is better)",
		func(r *Row, label string) (float64, bool) {
			t, ok := r.timeOf(label)
			if !ok || t == 0 {
				return 0, false
			}
			return r.CISCTime["CLX800"] / t, true
		})
}

// Table2 renders relative cycle efficiency: work per cycle relative to the
// CLX 800, i.e. speed rescaled by clock rate.
func Table2(rows []*Row) string {
	return relTable(rows, "Relative cycle efficiency (CLX 800 = 1.00; bigger is better)",
		func(r *Row, label string) (float64, bool) {
			t, ok := r.timeOf(label)
			if !ok || t == 0 {
				return 0, false
			}
			speed := r.CISCTime["CLX800"] / t
			return speed * clockOf("CLX800") / clockOf(label), true
		})
}

func relTable(rows []*Row, title string,
	val func(*Row, string) (float64, bool)) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n\n", title)
	fmt.Fprintf(&b, "%-22s", "Machine")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9s", r.Name)
	}
	b.WriteString("\n")
	for _, label := range machineRows {
		fmt.Fprintf(&b, "%-22s", label)
		for _, r := range rows {
			if v, ok := val(r, label); ok {
				fmt.Fprintf(&b, "%9.2f", v)
			} else {
				fmt.Fprintf(&b, "%9s", "n/a")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table3 renders inline expansion: RISC instructions per CISC instruction.
func Table3(rows []*Row) string {
	var b strings.Builder
	b.WriteString("RISC instructions generated inline per CISC instruction (lower is better)\n\n")
	fmt.Fprintf(&b, "%-22s", "Accel option")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9s", r.Name)
	}
	b.WriteString("\n")
	for _, lvl := range Levels {
		fmt.Fprintf(&b, "%-22s", "A-"+lvl.String())
		for _, r := range rows {
			fmt.Fprintf(&b, "%9.2f", r.Expansion[lvl])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Table4 renders the dynamic size expansion 2i + 0.75 (MIPS instructions
// are twice the size of TNS instructions; the PMap adds 75% of the original
// code size), plus the paper's note that accelerated codefiles additionally
// retain the complete CISC image (+1.0 static).
func Table4(rows []*Row) string {
	var b strings.Builder
	b.WriteString("Dynamic code size expansion, 2i + 0.75 (lower is better)\n\n")
	fmt.Fprintf(&b, "%-22s", "Accel option")
	for _, r := range rows {
		fmt.Fprintf(&b, "%9s", r.Name)
	}
	b.WriteString("\n")
	for _, lvl := range Levels {
		fmt.Fprintf(&b, "%-22s", "A-"+lvl.String())
		for _, r := range rows {
			fmt.Fprintf(&b, "%9.2f", r.DynSize[lvl])
		}
		b.WriteString("\n")
	}
	b.WriteString("\nStatic codefile expansion adds +1.0: the complete CISC image is retained.\n")
	return b.String()
}

// Figure renders an ASCII bar chart of the geometric mean across workloads
// for the given per-(row,label) metric — the shape of the paper's two bar
// figures.
func Figure(rows []*Row, title string,
	val func(*Row, string) (float64, bool)) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (geometric mean over workloads)\n\n", title)
	maxV := 0.0
	vals := map[string]float64{}
	for _, label := range machineRows {
		prod, n := 1.0, 0
		for _, r := range rows {
			if v, ok := val(r, label); ok && v > 0 {
				prod *= v
				n++
			}
		}
		if n == 0 {
			continue
		}
		g := math.Pow(prod, 1.0/float64(n))
		vals[label] = g
		if g > maxV {
			maxV = g
		}
	}
	for _, label := range machineRows {
		g, ok := vals[label]
		if !ok {
			continue
		}
		bar := int(g / maxV * 50)
		fmt.Fprintf(&b, "%-22s %5.2f |%s\n", label, g, strings.Repeat("#", bar))
	}
	return b.String()
}

// Figure1 is the relative-speed bar chart.
func Figure1(rows []*Row) string {
	return Figure(rows, "Figure 1: Relative Code Execution Speed",
		func(r *Row, label string) (float64, bool) {
			t, ok := r.timeOf(label)
			if !ok || t == 0 {
				return 0, false
			}
			return r.CISCTime["CLX800"] / t, true
		})
}

// Figure2 is the cycle-efficiency bar chart.
func Figure2(rows []*Row) string {
	return Figure(rows, "Figure 2: Relative Cycle Efficiency",
		func(r *Row, label string) (float64, bool) {
			t, ok := r.timeOf(label)
			if !ok || t == 0 {
				return 0, false
			}
			return r.CISCTime["CLX800"] / t * clockOf("CLX800") / clockOf(label), true
		})
}

// FullReport renders everything.
func FullReport(rows []*Row) string {
	var b strings.Builder
	b.WriteString("Reproduction of Andrews & Sand, ASPLOS-V 1992 — evaluation tables\n")
	b.WriteString(strings.Repeat("=", 70) + "\n\n")
	b.WriteString(Table1(rows) + "\n")
	b.WriteString(Figure1(rows) + "\n")
	b.WriteString(Table2(rows) + "\n")
	b.WriteString(Figure2(rows) + "\n")
	b.WriteString(Table3(rows) + "\n")
	b.WriteString(Table4(rows) + "\n")
	b.WriteString(Claims(rows) + "\n")
	return b.String()
}
