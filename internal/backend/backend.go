// Package backend defines the seam between the Accelerator's
// target-independent analysis core (RP tracking, liveness, PMap/EMap
// construction, FallbackWhy accounting) and a concrete RISC target. The
// translator emits a stream of virtual instructions ([Inst]) in the
// register convention of the TNS/R emulation scheme; a [Backend] turns that
// stream into target machine words, supplies the millicode implementation
// of the runtime routines, and decodes a run's code image once into a
// [Program] whose simulators drive mixed-mode execution.
//
// What is fixed across backends — the TNS/R runtime contract — lives in
// the millicode package: the data/code memory layout, the BREAK/SYSCALL
// protocol, the packed PMap/EMap table formats, and the millicode entry
// label names. What varies per backend is only the instruction encoding,
// the pipeline shape (delay slots or not), and the millicode routine
// bodies. Register-held code addresses are byte addresses (4x the word
// index) on every backend, so the runtime tables are target-independent.
package backend

import (
	"fmt"
	"sort"
)

// Traits describes target pipeline properties the target-independent
// pipeline must respect.
type Traits struct {
	// DelaySlots reports that every branch and jump executes the
	// following instruction before transferring control. When set, the
	// core runs its delay-slot scheduler over the virtual stream; when
	// clear, the raw stream's explicit slot nops are dropped by the
	// encoder instead.
	DelaySlots bool
}

// Encoded is the result of encoding a virtual instruction stream.
type Encoded struct {
	// Code holds the target machine words.
	Code []uint32
	// Pos maps each virtual instruction index to the word index of its
	// first target word; len(Pos) == len(ins)+1 and Pos[len(ins)] ==
	// len(Code), so Pos is also usable for labels bound at stream end.
	// Pos is non-decreasing (an instruction may encode to zero words).
	Pos []int32
}

// Program is a code image decoded once into one target's instruction form
// (under one timing configuration, for a target that has one). It is
// immutable: every simulator built from it shares the decoded code
// read-only, owns only its registers and pipeline state, and runs on the
// data memory its caller hands it.
type Program interface {
	// Code returns the raw words the program was decoded from: what a
	// code-window load reads and what a disassembler lists.
	Code() *CodeImage
	// NewSim constructs a simulator over the program whose data memory
	// is mem, taken as it is: the caller owns the memory's size, layout
	// and lifetime, and hands over zeroed memory for a fresh machine.
	NewSim(mem []byte) Sim
}

// Sim is the minimal simulator surface mixed-mode execution needs. The
// shared architectural and protocol state lives in [CPU]; a backend's
// simulator embeds CPU (gaining Core for free) and adds its private
// pipeline state.
type Sim interface {
	// Core returns the shared simulator state.
	Core() *CPU
	// ResumeAt clears the stop condition and continues execution at the
	// given code word index on the next Run.
	ResumeAt(pc uint32)
	// Run executes until a BREAK, a trap, or the instruction budget is
	// exhausted (0 means unlimited); it errors only on budget overrun.
	Run(maxInstrs int64) error
}

// Backend is one RISC target.
type Backend interface {
	// ID is the target's stable identity byte, stored in the codefile
	// acceleration section so a runner never drives translated code with
	// the wrong simulator.
	ID() uint8
	// Name is the target's stable human-readable name (CLI flags,
	// TransKey).
	Name() string
	// Traits reports the target pipeline properties.
	Traits() Traits
	// Millicode returns the target's assembled millicode image (loaded
	// at code word 0) and its entry labels, keyed by the millicode.L*
	// names. Implementations return private copies.
	Millicode() (code []uint32, labels map[string]uint32)
	// Encode lowers a virtual instruction stream to target words. base
	// is the code-space word index the stream will be loaded at; labelAt
	// resolves a label to the virtual instruction index it is bound to
	// (which may equal len(ins) for end-of-stream labels). ins is the
	// translator's own emission buffer, not a copy: Encode reads it and
	// must not write it.
	Encode(ins []Inst, labelAt func(Label) (int32, error), base uint32) (Encoded, error)
	// Load decodes the populated words of a code image once into the
	// target's instruction form. Words the target cannot decode are kept
	// as invalid instructions that trap when executed, never here.
	Load(code *CodeImage) Program
	// Disasm renders one target word for listings and debuggers; pc is
	// the word's code index (branch targets print absolutely).
	Disasm(pc, w uint32) string
}

// Registry of available backends, populated by implementation packages at
// init. The zero ID is the MIPS/R3000 default, which is also what
// acceleration sections written before the backend tag existed decode as.
var (
	byID   = map[uint8]Backend{}
	byName = map[string]Backend{}
)

// Register adds a backend to the registry; it panics on a duplicate ID or
// name, which would make codefile tags ambiguous.
func Register(b Backend) {
	if _, dup := byID[b.ID()]; dup {
		panic(fmt.Sprintf("backend: duplicate ID %d", b.ID()))
	}
	if _, dup := byName[b.Name()]; dup {
		panic("backend: duplicate name " + b.Name())
	}
	byID[b.ID()] = b
	byName[b.Name()] = b
}

// ByID looks a backend up by its codefile identity byte.
func ByID(id uint8) (Backend, bool) {
	b, ok := byID[id]
	return b, ok
}

// ByName looks a backend up by its CLI/TransKey name.
func ByName(name string) (Backend, bool) {
	b, ok := byName[name]
	return b, ok
}

// Names returns the registered backend names, sorted.
func Names() []string {
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
