// Package workloads provides the paper's five benchmark programs, written
// in mini-TAL and compiled to TNS codefiles:
//
//   - Dhrystone in 16-bit and 32-bit addressing variants ("TAL-coded
//     Dhrystone ... combines features of C and Pascal Dhrystone benchmarks
//     in ways typical of our software"),
//   - TAL: a compiler front end (lexer, symbol table, parser skeleton)
//     processing embedded source text, standing in for the TAL compiler,
//   - Axcel: a translator-like workload (instruction decoding, flow
//     analysis with an explicit stack, hashing, table sorts), standing in
//     for the Accelerator translating itself,
//   - ET1: a debit/credit transaction benchmark whose work happens almost
//     entirely in the system-library codefile (keyed file reads/writes,
//     record locking, journaling), as the paper describes.
//
// Each workload prints a checksum through the console SVCs, so every
// execution mode can be cross-checked for identical behaviour.
package workloads

import (
	"fmt"

	"tnsr/internal/codefile"
	"tnsr/internal/talc"
)

// Workload is one benchmark program.
type Workload struct {
	Name string
	// User is the application codefile; Lib is the system-library codefile
	// (nil for CPU-bound workloads).
	User *codefile.File
	Lib  *codefile.File
	// LibSummaries is Lib.Summaries(), the Accelerator's "standard library
	// descriptions". core.AcceleratePair derives them itself; the field
	// remains for perfbench, which translates the user file alone.
	LibSummaries map[uint16]int8
}

// Names lists the workloads in the order the paper's tables print them.
var Names = []string{"dhry16", "dhry32", "tal", "axcel", "et1"}

// Build compiles a workload by name with the given iteration count.
func Build(name string, iterations int) (*Workload, error) {
	var userSrc, libSrc string
	switch name {
	case "dhry16":
		userSrc = dhrystoneSource(false, iterations)
	case "dhry32":
		userSrc = dhrystoneSource(true, iterations)
	case "tal":
		userSrc = talWorkSource(iterations)
	case "axcel":
		userSrc = axcelSource(iterations)
	case "et1":
		userSrc = et1Source(iterations)
		libSrc = SyslibSource
	default:
		return nil, fmt.Errorf("workloads: unknown workload %q", name)
	}
	// When a system library is present, its globals own the low (directly
	// addressable) region and the application's move up out of the way.
	userOpt := talc.Options{}
	if libSrc != "" {
		userOpt.GlobalBase = 2048
	}
	user, err := talc.CompileOpt(name, userSrc, userOpt)
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", name, err)
	}
	w := &Workload{Name: name, User: user}
	if libSrc != "" {
		lib, err := talc.Compile(name+"-lib", libSrc)
		if err != nil {
			return nil, fmt.Errorf("workloads: %s library: %w", name, err)
		}
		w.Lib, w.LibSummaries = lib, lib.Summaries()
	}
	return w, nil
}

// MustBuild panics on error.
func MustBuild(name string, iterations int) *Workload {
	w, err := Build(name, iterations)
	if err != nil {
		panic(err)
	}
	return w
}
