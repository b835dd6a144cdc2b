// OLTP example: the ET1 debit/credit benchmark. The application codefile is
// tiny; nearly all cycles land in the system-library codefile (keyed file
// reads/writes, record locking, journaling) reached through SCAL calls —
// the situation the paper describes for Tandem's OLTP workloads. This
// example accelerates the two codefiles independently and shows cross-
// codefile calls running at full speed, plus what happens when only the
// library is accelerated (the paper's observation that I/O-bound programs
// need only their system code accelerated).
package main

import (
	"fmt"
	"log"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/machine"
	"tnsr/internal/risc"
	"tnsr/internal/workloads"
	"tnsr/internal/xrun"
)

const txns = 200

// run translates both codefiles at Fast and runs them in mixed mode; with
// accelUser false the application runs from its plain codefile, so only
// the library executes translated.
func run(w *workloads.Workload, accelUser bool) (cycles float64, interludes int, out string) {
	user, lib, err := core.AcceleratePair(w.User, w.Lib,
		core.Options{Level: codefile.LevelFast}, core.Accelerate)
	if err != nil {
		log.Fatal(err)
	}
	if !accelUser {
		user = w.User
	}
	r, err := xrun.New(user, lib, risc.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := r.Run(2_000_000_000); err != nil {
		log.Fatal(err)
	}
	total, _, _ := r.Cycles()
	return total, r.Interludes, r.Console()
}

func main() {
	fmt.Printf("ET1 debit/credit, %d transactions\n\n", txns)

	// Baseline: everything interpreted.
	w := workloads.MustBuild("et1", txns)
	m := interp.New(w.User, w.Lib)
	if err := m.Run(2_000_000_000); err != nil {
		log.Fatal(err)
	}
	im := &machine.CycloneRInterp
	interpCycles := im.Cycles(&m.Prof.Counts, m.Prof.LongUnits)
	fmt.Printf("%-34s %12.0f cycles   output %q\n",
		"everything interpreted:", interpCycles, m.Console.String())

	libOnly, inter1, out1 := run(w, false)
	fmt.Printf("%-34s %12.0f cycles   interludes %d\n",
		"library accelerated, app not:", libOnly, inter1)

	both, inter2, out2 := run(w, true)
	fmt.Printf("%-34s %12.0f cycles   interludes %d\n",
		"both codefiles accelerated:", both, inter2)

	if out1 != m.Console.String() || out2 != m.Console.String() {
		log.Fatal("outputs differ between modes")
	}
	fmt.Println()
	fmt.Printf("library-only acceleration already gives %.1fx (the app's own\n",
		interpCycles/libOnly)
	fmt.Printf("driver code hardly matters, as the paper notes); both: %.1fx\n",
		interpCycles/both)
}
