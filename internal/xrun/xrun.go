// Package xrun executes accelerated codefiles the way a TNS/R machine does:
// translated RISC code at full speed, with automatic switches into the TNS
// interpreter at puzzle points and automatic recovery back into RISC code at
// the next call or return that finds a register-exact point in the PMap. It
// builds the run image once per codefile pair (millicode, translated code
// decoded for the target, packed PMaps, EMaps, attribution tables) and
// shares it across every runner of that pair, recycles the simulator
// memory of every runner released after its run, mediates the BREAK/SYSCALL
// protocol, and accounts cycles separately per execution mode so "time
// spent in interpreter mode" is measurable, as in the paper.
package xrun

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

	"tnsr/internal/backend"
	"tnsr/internal/backend/mips"
	_ "tnsr/internal/backend/ob0" // register the second target for ByID/ByName
	"tnsr/internal/codefile"
	"tnsr/internal/interp"
	"tnsr/internal/machine"
	"tnsr/internal/millicode"
	"tnsr/internal/obs"
	"tnsr/internal/pgo"
	"tnsr/internal/risc"
	"tnsr/internal/tns"
)

// SwitchPenalty is the RISC cycle cost charged per execution-mode switch
// (state packing and dispatch into or out of the interpreter loop).
const SwitchPenalty = 40

// DefaultQuarantineThreshold is the number of rolled-back trap storms one
// procedure's translation is allowed before the procedure is demoted to
// interpreter-only execution for the rest of the run.
const DefaultQuarantineThreshold = 3

// Runner executes a user codefile (optionally with a system library) in
// mixed mode.
type Runner struct {
	User *codefile.File
	Lib  *codefile.File

	// Sim is the simulator state (registers, memory, stop/breakpoint
	// protocol) of whichever backend the accelerated sections were encoded
	// for; sim is the backend simulator driving it over the image's
	// decoded code.
	Sim *backend.CPU
	Int *interp.Machine

	// Mode accounting.
	InterludeProf interp.Profile // instructions interpreted in fallback mode
	Interludes    int            // interpreter episodes
	Switches      int            // total mode switches (both directions)
	// MirroredPages counts the tns.PageWords-word data pages copied
	// between the interpreter's and the simulator's memory, both
	// directions, including New's initial mirror.
	MirroredPages int

	Halted     bool
	ExitStatus uint16
	Trap       int
	TrapP      uint16

	// Breakpoint support for the debugger: TNSBreaks keys are
	// space<<16 | TNS address; a hit stops Run with BPHit set.
	TNSBreaks map[uint32]bool
	BPHit     bool
	BPSpace   interp.Space
	BPAddr    uint16

	// Obs, when attached via Observe, receives every mode transition with
	// a typed escape reason, plus PMap probe results. Nil costs one
	// comparison at each transition site (the per-instruction hooks live
	// in interp.Machine and risc.Sim).
	Obs *obs.Recorder

	// PGO, when attached via Capture, receives the dynamic RP at every
	// fired run-time guard (failed return-point checks and refused
	// re-entries) — the raw material of profile-guided retranslation. Nil
	// costs one comparison per transition site.
	PGO *pgo.Capture

	// Degradation state, copied from the image. Degraded is set when an
	// acceleration section failed codefile verification when the image
	// was built and the affected space runs fully interpreted;
	// DegradedReason carries the typed detail.
	Degraded       bool
	DegradedReason string

	// QuarantineThreshold is the number of unexpected-trap rollbacks one
	// procedure's translation may cause before the procedure is demoted
	// to interpreter-only (<= 0 means DefaultQuarantineThreshold).
	QuarantineThreshold int

	// RollbackLog records recent rollback diagnostics (capped).
	RollbackLog []string

	img *Image // shared, read-only

	quarTraps   map[uint32]int64 // quarKey -> rolled-back traps
	quarantined map[uint32]bool  // quarKey -> demoted to interpreter-only

	// Rollback anchor: the interpreter state at the last RISC entry is
	// still live in r.Int (RISC episodes never write the interpreter),
	// so abandoning an episode only needs these bookkeeping values.
	entrySpace   interp.Space
	entryAddr    uint16
	entryProc    int // proc index containing entryAddr, -1 if unknown
	entryConsole int // console length at entry: output since = irreversible

	inRISC  bool
	skipBP  bool
	sim     backend.Sim
	noEnter obs.EscapeReason // why the last enterRISCIfMapped refused

	// written records every TNS data page of r.Sim.Mem a page set has
	// named since NewRunner: the pages Release must clear.
	written tns.PageSet
}

// quarKey packs a quarantine map key: space in the top bit, proc index
// below (-1 saturates, so unattributed entries still share one counter).
func quarKey(space interp.Space, proc int) uint32 {
	return uint32(space&1)<<31 | (uint32(proc) & 0x7FFFFFFF)
}

// Image is the immutable part of a mixed-mode run of one (user, lib,
// timing config) triple: the verified acceleration sections and why any
// was refused, the resolved backend, the code space decoded once for it,
// the packed runtime tables with their pointer words and fence, and the
// attribution tables. NewImage builds it once; every Runner made from it
// (NewRunner) shares it read-only and owns only its data memory, its
// interpreter, its caches and its counters. An Image is safe for
// concurrent use; whoever shares one holds it.
type Image struct {
	user, lib *codefile.File

	accel          [2]*codefile.AccelSection // loaded sections by space; nil = interpreted
	degraded       [2]bool                   // space's section was refused
	degradedReason string

	be     backend.Backend
	prog   backend.Program
	tables []byte // data memory from millicode.PtrArea: pointer words, packed tables
	attr   *obs.Attribution
}

// New builds a runner over a private image: NewImage, then NewRunner.
// Either or both codefiles may be accelerated; unaccelerated files simply
// run interpreted. An acceleration section that fails structural
// verification is dropped rather than failing the load — the CISC image
// is intact and authoritative, so the affected space runs fully
// interpreted (Degraded is set and every refused re-entry is classified
// obs.EscapeQuarantined).
func New(user, lib *codefile.File, cfg risc.Config) (*Runner, error) {
	img, err := NewImage(user, lib, cfg)
	if err != nil {
		return nil, err
	}
	return img.NewRunner(), nil
}

// NewImage verifies the acceleration sections, resolves the target
// backend, decodes the populated code once and lays out the runtime
// tables and the attribution tables. The codefiles must stay unmodified
// while the image is in use. It fails only for a user codefile whose main
// entry names no procedure.
func NewImage(user, lib *codefile.File, cfg risc.Config) (*Image, error) {
	if int(user.MainPEP) >= len(user.Procs) {
		return nil, fmt.Errorf("xrun: main PEP %d names none of %d procedures",
			user.MainPEP, len(user.Procs))
	}
	img := &Image{user: user, lib: lib}

	var bases [2]int
	for i, f := range [2]*codefile.File{user, lib} {
		bases[i] = int(millicode.CodeBase(uint8(i)))
		if f == nil || f.Accel == nil {
			continue
		}
		if err := f.Accel.Verify(f, bases[i]); err != nil {
			img.setDegraded(i, err)
		} else {
			img.accel[i] = f.Accel
		}
	}

	// Resolve the target backend from the sections' identity tags. A
	// section for an unregistered target is refused exactly like one
	// that fails structural verification; when user and library name
	// different targets the library is dropped (one simulator drives
	// both spaces). With no accelerated sections the MIPS default
	// stands, timing-configured by cfg.
	for i, a := range img.accel {
		if a == nil {
			continue
		}
		if _, ok := backend.ByID(a.BackendID); !ok {
			img.setDegraded(i, fmt.Errorf("xrun: unknown backend ID %d", a.BackendID))
			img.accel[i] = nil
		}
	}
	if img.accel[0] != nil && img.accel[1] != nil &&
		img.accel[0].BackendID != img.accel[1].BackendID {
		img.setDegraded(1, fmt.Errorf("xrun: backend mismatch: user ID %d, lib ID %d",
			img.accel[0].BackendID, img.accel[1].BackendID))
		img.accel[1] = nil
	}
	img.be = mips.New(cfg)
	for _, a := range img.accel {
		if a != nil && a.BackendID != mips.BackendID {
			img.be, _ = backend.ByID(a.BackendID)
			break
		}
	}

	// The code space runs to the end of the last loaded section (to the
	// user base when nothing is loaded); only millicode and the loaded
	// sections are stored.
	milli, _ := img.be.Millicode()
	segs := []backend.Segment{{Words: milli}}
	codeLen := bases[0]
	for i, a := range img.accel {
		if a != nil {
			segs = append(segs, backend.Segment{Base: uint32(bases[i]), Words: a.RISC})
			codeLen = bases[i] + len(a.RISC)
		}
	}
	img.prog = img.be.Load(backend.NewCodeImage(codeLen, segs...))

	// Lay out the runtime tables: the pointer words, then each loaded
	// section's packed PMap and EMap from TableArea, word-aligned.
	img.tables = make([]byte, millicode.TableArea-millicode.PtrArea)
	place := func(b []byte) uint32 {
		addr := millicode.PtrArea + uint32(len(img.tables))
		img.tables = append(img.tables, b...)
		for len(img.tables)%4 != 0 {
			img.tables = append(img.tables, 0)
		}
		return addr
	}
	ptrs := [2][3]uint32{
		{millicode.PtrUserPMapBase, millicode.PtrUserPMapOff, millicode.PtrUserEMap},
		{millicode.PtrLibPMapBase, millicode.PtrLibPMapOff, millicode.PtrLibEMap},
	}
	for i, a := range img.accel {
		if a == nil {
			continue
		}
		pm := a.PMap.Pack()
		pmAddr := place(pm)
		img.putPtr(ptrs[i][0], pmAddr+4)
		img.putPtr(ptrs[i][1], pmAddr+4+4*binary.BigEndian.Uint32(pm))
		img.putPtr(ptrs[i][2], place(packEMap(a.Entries)))
	}

	img.attr = obs.NewAttribution(user, lib, img.accel, codeLen, bases)
	return img, nil
}

// putPtr stores a big-endian pointer word at data address at.
func (img *Image) putPtr(at, v uint32) {
	binary.BigEndian.PutUint32(img.tables[at-millicode.PtrArea:], v)
}

// setDegraded records a refused section; the space runs interpreted for
// every run of the image.
func (img *Image) setDegraded(space int, err error) {
	img.degraded[space] = true
	if img.degradedReason != "" {
		img.degradedReason += "; "
	}
	img.degradedReason += spaceNames[space] + ": " + err.Error()
}

// Code returns the image's code space: millicode and the loaded sections
// at their load addresses.
func (img *Image) Code() *backend.CodeImage { return img.prog.Code() }

// NewRunner makes a runner over the image. It allocates the runner's own
// state only: the interpreter with its data image, and the counters; the
// simulator's data memory (with the runtime tables copied in and fenced)
// comes from a pool of all-zero memories that Release refills, and is
// allocated only when the pool is empty.
func (img *Image) NewRunner() *Runner {
	r := &Runner{User: img.user, Lib: img.lib, img: img,
		QuarantineThreshold: DefaultQuarantineThreshold,
		Degraded:            img.degraded[0] || img.degraded[1],
		DegradedReason:      img.degradedReason}
	mem, recycled := memPool.Get().(*simMem)
	if !recycled {
		mem = new(simMem)
	}
	if recycleHook != nil {
		recycleHook(mem[:], recycled)
	}
	r.sim = img.prog.NewSim(mem[:])
	r.Sim = r.sim.Core()
	r.Int = interp.New(img.user, img.lib)
	r.Sim.OnSyscall = r.onSyscall

	// Fence the pointer words and the packed tables against simulated
	// stores: damaged translated code must not be able to rewrite the
	// structures the recovery path depends on.
	copy(r.Sim.Mem[millicode.PtrArea:], img.tables)
	r.Sim.ProtectedLo = millicode.PtrArea
	r.Sim.ProtectedHi = millicode.PtrArea + uint32(len(img.tables))

	// Mirror the pages interp.New wrote (the data image and the halt
	// marker); simulator memory starts zeroed, so every other page agrees.
	r.syncMemToSim()
	return r
}

// simMem is one simulator data memory in the runtime layout: the TNS data
// region, then the runtime tables from millicode.PtrArea, then memory
// that correct code never touches.
type simMem [millicode.MemBytes]byte

// memPool holds all-zero simulator memories for NewRunner. Release puts a
// runner's memory back once it has cleared what the run wrote; the pool's
// size is bounded by the garbage collector, and how many memories are in
// use at once by the callers (the fleet's slot gate).
var memPool sync.Pool

// recycleHook, when non-nil, sees every memory NewRunner takes before it
// writes to it, and whether it came from the pool; releaseHook, when
// non-nil, runs at every Release that ends a runner's use of its memory.
// Tests install the recycled-memory check and the release count here
// (DESIGN.md §6); in production both are nil and cost one comparison per
// runner.
var (
	recycleHook func(mem []byte, recycled bool)
	releaseHook func()
)

// Release ends the runner's use of its simulator data memory and hands it
// back for a later NewRunner: it clears every TNS data page the run
// wrote, which the page sets recorded, and the runtime tables. A memory
// that a store reached beyond the TNS data region (DirtyBeyond, damaged
// code only) holds a write no page set recorded, and is left to the
// garbage collector instead.
//
// Call it only once the runner's run returned normally and nothing reads
// its simulator memory any more; a runner abandoned by a panic, or never
// released, just leaves its memory to the garbage collector. Release
// keeps the runner's results (console, exit state, counters, Report) but
// sets Sim.Mem to nil, so running the runner or reading its simulator
// memory afterwards panics instead of reading another runner's data. A
// second Release does nothing.
func (r *Runner) Release() {
	if r.Sim.Mem == nil {
		return
	}
	if releaseHook != nil {
		releaseHook()
	}
	mem := (*simMem)(r.Sim.Mem)
	r.Sim.Mem = nil
	if r.Sim.DirtyBeyond {
		return
	}
	r.written.Union(&r.Sim.Dirty)
	r.written.ForEach(func(pg int) {
		clear(mem[pg*2*tns.PageWords : (pg+1)*2*tns.PageWords])
	})
	clear(mem[millicode.PtrArea : millicode.PtrArea+len(r.img.tables)])
	memPool.Put(mem)
}

// Image returns the shared image the runner was made from.
func (r *Runner) Image() *Image { return r.img }

// Backend returns the target the runner's image resolved from the
// acceleration sections' identity tags (the MIPS default when nothing is
// accelerated).
func (r *Runner) Backend() backend.Backend { return r.img.be }

// BackendSim returns the backend simulator driving r.Sim. Callers wanting
// target-specific pipeline detail (stall and cache counters, special
// registers) type-assert its concrete type; everything target-independent
// is on r.Sim itself.
func (r *Runner) BackendSim() backend.Sim { return r.sim }

// packEMap serializes the PEP -> RISC entry map as big-endian byte
// addresses (0 for untranslated procedures).
func packEMap(entries []int32) []byte {
	out := make([]byte, 4*len(entries))
	for i, e := range entries {
		if e >= 0 {
			binary.BigEndian.PutUint32(out[4*i:], uint32(e)<<2)
		}
	}
	return out
}

// mirrorHook, when non-nil, runs after every memory sync with the number
// of pages it copied, and after every rollback (rolledBack true). Tests
// install the mirror invariant check here (DESIGN.md §6); in production it
// is nil and costs one comparison per switch.
var mirrorHook func(r *Runner, pages int, rolledBack bool)

// syncMemToSim mirrors memory interpreter→simulator at a RISC entry (and
// in New and AdoptInterpreter). It copies the pages in the union of both
// sides' page sets, then clears both. The simulator's set is non-empty
// here only after a rollback: it holds the pages the abandoned episode
// wrote, and copying them from the interpreter, which the episode never
// wrote, restores the entry state.
func (r *Runner) syncMemToSim() {
	dirty := r.Int.Dirty
	dirty.Union(&r.Sim.Dirty)
	dirty.ForEach(func(pg int) {
		lo := pg * tns.PageWords
		dst := r.Sim.Mem[2*lo : 2*(lo+tns.PageWords)]
		for i, w := range r.Int.Mem[lo : lo+tns.PageWords] {
			dst[2*i] = byte(w >> 8)
			dst[2*i+1] = byte(w)
		}
	})
	n := dirty.Len()
	r.MirroredPages += n
	r.written.Union(&dirty)
	r.Int.Dirty, r.Sim.Dirty = tns.PageSet{}, tns.PageSet{}
	if mirrorHook != nil {
		mirrorHook(r, n, false)
	}
}

// syncMemToInt commits a RISC episode's memory at exit, halt or trap: it
// copies simulator→interpreter the pages the simulator wrote, then clears
// its set. Every other page still agrees, because the entry sync left the
// two memories equal and nothing writes the interpreter during an episode.
func (r *Runner) syncMemToInt() {
	r.Sim.Dirty.ForEach(func(pg int) {
		lo := pg * tns.PageWords
		src := r.Sim.Mem[2*lo : 2*(lo+tns.PageWords)]
		dst := r.Int.Mem[lo : lo+tns.PageWords]
		for i := range dst {
			dst[i] = uint16(src[2*i])<<8 | uint16(src[2*i+1])
		}
	})
	n := r.Sim.Dirty.Len()
	r.MirroredPages += n
	r.written.Union(&r.Sim.Dirty)
	r.Sim.Dirty = tns.PageSet{}
	if mirrorHook != nil {
		mirrorHook(r, n, false)
	}
}

// DataWord reads data word addr from the memory that is current in this
// mode: the simulator's while in RISC mode, the interpreter's otherwise.
func (r *Runner) DataWord(addr uint16) uint16 {
	if r.inRISC {
		return r.Sim.ReadHalf(uint32(addr) * 2)
	}
	return r.Int.Mem[addr]
}

// SetDataWord writes data word addr into the memory that is current in
// this mode and marks its page there, so the next switch mirrors it. It
// is the one entry point for host-side data writes (the debugger's).
func (r *Runner) SetDataWord(addr, v uint16) {
	if r.inRISC {
		r.Sim.WriteHalf(uint32(addr)*2, v)
		return
	}
	r.Int.Mem[addr] = v
	r.Int.Dirty.MarkWord(addr)
}

// LoadedAccel returns the acceleration section the runner's image loaded
// for a code space, or nil: no section, or one NewImage refused (failed
// Verify, unknown backend, or a library dropped for a backend mismatch).
// This, not File.Accel, says whether the space has translated code.
func (r *Runner) LoadedAccel(space interp.Space) *codefile.AccelSection {
	return r.img.accel[space&1]
}

// enterRISCIfMapped checks whether the interpreter's current position is a
// register-exact point and, if so, switches to RISC execution. When it
// refuses, r.noEnter records why (read by the initial-interlude telemetry).
func (r *Runner) enterRISCIfMapped() bool {
	acc := r.LoadedAccel(r.Int.Space)
	if acc == nil {
		if r.img.degraded[r.Int.Space&1] {
			r.noEnter = obs.EscapeQuarantined
		} else {
			r.noEnter = obs.EscapeUntranslated
		}
		return false
	}
	// Quarantined procedures stay interpreted for the rest of the run.
	proc := -1
	if f := r.Int.CodeFile(r.Int.Space); f != nil {
		proc = f.ProcContaining(r.Int.P)
	}
	if r.quarantined[quarKey(r.Int.Space, proc)] {
		r.noEnter = obs.EscapeQuarantined
		return false
	}
	idx, regExact, ok := acc.PMap.Lookup(r.Int.P)
	if r.Obs != nil {
		r.Obs.PMapLookup(ok && regExact)
	}
	if !ok || !regExact {
		r.noEnter = obs.EscapeUnmapped
		return false
	}
	// The translated code at this point assumes a specific RP; a wrong
	// result-size guess upstream can leave the dynamic RP different, in
	// which case execution must stay interpreted.
	if int(r.Int.P) < len(acc.ExpectedRP) {
		if exp := acc.ExpectedRP[r.Int.P]; exp != 0xFF && exp != r.Int.RP {
			r.noEnter = obs.EscapeRPConflict
			if r.PGO != nil {
				r.PGO.EscapeRP(uint8(r.Int.Space), r.Int.P, r.Int.RP)
			}
			return false
		}
	}
	// Anchor the rollback point: the interpreter keeps the exact
	// architectural state of this instant for the whole RISC episode.
	r.entrySpace = r.Int.Space
	r.entryAddr = r.Int.P
	r.entryProc = proc
	r.entryConsole = r.Int.Console.Len()

	r.loadSimFromInt()
	r.sim.ResumeAt(uint32(idx))
	r.Sim.Cycles += SwitchPenalty
	r.Switches++
	r.inRISC = true
	if r.Obs != nil {
		r.Obs.EnterRISC()
	}
	return true
}

// loadSimFromInt transfers architectural state interpreter -> simulator.
func (r *Runner) loadSimFromInt() {
	r.syncMemToSim()
	m := r.Int
	s := r.Sim
	for i := 0; i < 8; i++ {
		s.Reg[risc.RegR0+i] = uint32(int32(int16(m.R[i])))
	}
	s.Reg[risc.RegDB] = 0
	s.Reg[risc.RegL] = uint32(m.L) * 2
	s.Reg[risc.RegS] = uint32(m.S) * 2
	s.Reg[risc.RegCC] = uint32(int32(m.CC))
	s.Reg[risc.RegK] = 0
	s.Reg[risc.RegV] = 0
	s.Reg[risc.RegENV] = uint32(packENV(m))
}

func packENV(m *interp.Machine) uint16 {
	return interp.PackENV(m.RP, m.T, m.Space)
}

// loadIntFromSim transfers architectural state simulator -> interpreter,
// resuming interpretation at TNS address p in the space given by $env.
func (r *Runner) loadIntFromSim(p uint16) {
	r.syncMemToInt()
	m := r.Int
	s := r.Sim
	for i := 0; i < 8; i++ {
		m.R[i] = uint16(s.Reg[risc.RegR0+i])
	}
	env := uint16(s.Reg[risc.RegENV])
	m.RP = uint8(env & 7)
	m.T = env&0x80 != 0
	m.Space = interp.UnpackENVSpace(env)
	m.L = uint16(s.Reg[risc.RegL] / 2)
	m.S = uint16(s.Reg[risc.RegS] / 2)
	cc := int32(s.Reg[risc.RegCC])
	switch {
	case cc < 0:
		m.CC = -1
	case cc > 0:
		m.CC = 1
	default:
		m.CC = 0
	}
	m.K, m.V = false, false
	m.P = p
}

// Run executes until the program halts or the instruction budget (summed
// over both modes) is exhausted.
func (r *Runner) Run(maxInstrs int64) error {
	if r.Sim.Mem == nil {
		panic("xrun: Run after Release")
	}
	// Start in RISC mode if the main entry is register-exact.
	if !r.inRISC {
		if !r.enterRISCIfMapped() {
			r.Interludes++ // the program begins interpreted
			if r.Obs != nil {
				r.Obs.Escape(uint8(r.Int.Space), r.Int.P, r.noEnter, true)
			}
		}
	}
	for !r.Halted && !r.BPHit {
		spent := r.Sim.Instrs + r.InterludeProf.Instrs
		if maxInstrs > 0 && spent >= maxInstrs {
			return fmt.Errorf("xrun: exceeded %d instructions", maxInstrs)
		}
		if r.inRISC {
			if err := r.runRISC(maxInstrs); err != nil {
				return err
			}
		} else {
			r.runInterp(maxInstrs)
		}
	}
	return nil
}

// Continue resumes after a breakpoint hit.
func (r *Runner) Continue(maxInstrs int64) error {
	if r.BPHit {
		r.BPHit = false
		if r.inRISC {
			r.sim.ResumeAt(r.Sim.PC)
		} else {
			r.skipBP = true
		}
	}
	return r.Run(maxInstrs)
}

// InRISCMode reports the current execution mode.
func (r *Runner) InRISCMode() bool { return r.inRISC }

// ArmBreak arms a breakpoint at a TNS address in the given code space
// (0 = user, 1 = lib) for both execution modes: the interpreter-side check
// always, and the RISC-side breakpoint when the address is a mapped point
// of the translation the runner loaded (LoadedAccel). It reports whether
// the RISC side was armed; unmapped addresses, and every address of a
// space New refused to load, still break under interpretation.
func (r *Runner) ArmBreak(space uint8, addr uint16) bool {
	if r.TNSBreaks == nil {
		r.TNSBreaks = map[uint32]bool{}
	}
	r.TNSBreaks[uint32(space&1)<<16|uint32(addr)] = true
	acc := r.LoadedAccel(interp.Space(space))
	if acc == nil {
		return false
	}
	idx, _, ok := acc.PMap.Lookup(addr)
	if !ok {
		return false
	}
	if r.Sim.Breakpoints == nil {
		r.Sim.Breakpoints = map[uint32]bool{}
	}
	r.Sim.Breakpoints[uint32(idx)] = true
	return true
}

func (r *Runner) runRISC(maxInstrs int64) error {
	budget := int64(0)
	if maxInstrs > 0 {
		budget = maxInstrs - r.Sim.Instrs - r.InterludeProf.Instrs
	}
	if err := r.sim.Run(budget); err != nil {
		return err
	}
	s := r.Sim
	switch {
	case s.BPHit:
		r.BPHit = true
		r.BPSpace = interp.UnpackENVSpace(uint16(s.Reg[risc.RegENV]))
		if acc := r.LoadedAccel(r.BPSpace); acc != nil {
			if a, ok := acc.PMap.Inverse(int(s.PC)); ok {
				r.BPAddr = a
			}
		}
		if r.Obs != nil {
			r.Obs.Escape(uint8(r.BPSpace), r.BPAddr, obs.EscapeBreakpoint, false)
		}
		return nil
	case s.Trap == risc.TrapOverflow:
		// A hardware-trapping add fired: translated code only uses them
		// when overflow traps are statically enabled, so this is the TNS
		// overflow trap. The PMap inverse gives the nearest TNS address.
		r.Halted = true
		r.Trap = tns.TrapOverflow
		space := interp.UnpackENVSpace(uint16(s.Reg[risc.RegENV]))
		if acc := r.LoadedAccel(space); acc != nil {
			if a, ok := acc.PMap.Inverse(int(s.TrapPC)); ok {
				r.TrapP = a
			}
		}
		if r.Obs != nil {
			r.Obs.Escape(uint8(space), r.TrapP, obs.EscapeTrap, false)
		}
		r.syncMemToInt()
	case s.Trap != risc.TrapNone:
		// Raw simulator trap: correct translated code stays inside the
		// data space, so this is damage — corrupt RISC words, a fenced
		// store into the runtime tables — not TNS semantics. Roll the
		// episode back to its interpreter entry state and re-run it
		// interpreted; a procedure that storms repeatedly is
		// quarantined. Only when rollback is impossible (console output
		// already escaped) does the run halt.
		if r.rollback(fmt.Sprintf("risc trap %d at pc %d", s.Trap, s.TrapPC)) {
			return nil
		}
		r.Halted = true
		r.Trap = tns.TrapAddress
		r.TrapP = 0
		if r.Obs != nil {
			r.Obs.Escape(uint8(r.Int.Space), 0, obs.EscapeTrap, false)
		}
		r.syncMemToInt()
	case s.BreakCode == millicode.BreakHalt:
		r.Halted = true
		r.ExitStatus = r.Int.ExitStatus
		r.syncMemToInt()
	case s.BreakCode == millicode.BreakFallback:
		p := uint16(s.Reg[risc.RegMT])
		if r.Obs != nil {
			space := interp.UnpackENVSpace(uint16(s.Reg[risc.RegENV]))
			r.Obs.Escape(uint8(space), p, r.fallbackReason(space, p), true)
		}
		if r.PGO != nil {
			// The dynamic RP that contradicted the static assumption is in
			// $env, which translated code keeps synchronized at every
			// canonicalized point (including fallback stubs).
			space := interp.UnpackENVSpace(uint16(s.Reg[risc.RegENV]))
			r.PGO.EscapeRP(uint8(space), p, uint8(s.Reg[risc.RegENV]&7))
		}
		r.loadIntFromSim(p)
		r.Sim.Cycles += SwitchPenalty
		r.Switches++
		r.Interludes++
		r.inRISC = false
	case s.BreakCode >= millicode.BreakTrapBase:
		r.Halted = true
		r.Trap = int(s.BreakCode) - millicode.BreakTrapBase
		r.TrapP = uint16(s.Reg[risc.RegMT])
		if r.Obs != nil {
			r.Obs.Escape(uint8(r.Int.Space), r.TrapP, obs.EscapeTrap, false)
		}
		r.syncMemToInt()
	default:
		if r.rollback(fmt.Sprintf("unexpected break %d at pc %d", s.BreakCode, s.PC)) {
			return nil
		}
		return fmt.Errorf("xrun: unexpected break %d at %d", s.BreakCode, s.PC)
	}
	return nil
}

// rollback abandons the current RISC episode after an unexpected trap or
// break. It is sound because the interpreter still holds the exact
// architectural state from the episode's entry point: the entry sync made
// the two memories equal and the interpreter is never written during RISC
// execution. Nothing is copied here. The pages the episode wrote stay in
// the simulator's page set, so the next entry's syncMemToSim restores them
// from the interpreter. The one irreversible side effect is console output
// (onSyscall writes it directly), so an episode that already printed
// cannot be re-run and rollback reports false.
//
// Every rollback counts against the procedure the episode entered through
// (the entry procedure, not the trapping PC: RISC-internal direct calls
// bypass entry checks, and quarantining the entry path is what guarantees
// the storm cannot recur). At QuarantineThreshold the procedure is demoted
// to interpreter-only for the rest of the run, which bounds the total
// number of rollbacks and guarantees forward progress.
func (r *Runner) rollback(detail string) bool {
	if r.Int.Console.Len() != r.entryConsole {
		return false
	}
	if r.quarTraps == nil {
		r.quarTraps = map[uint32]int64{}
		r.quarantined = map[uint32]bool{}
	}
	key := quarKey(r.entrySpace, r.entryProc)
	r.quarTraps[key]++
	thr := r.QuarantineThreshold
	if thr <= 0 {
		thr = DefaultQuarantineThreshold
	}
	if r.quarTraps[key] >= int64(thr) {
		r.quarantined[key] = true
	}
	if len(r.RollbackLog) < 32 {
		r.RollbackLog = append(r.RollbackLog, fmt.Sprintf("%s/%s: %s",
			spaceName(r.entrySpace), r.procName(r.entrySpace, r.entryProc), detail))
	}
	if r.Obs != nil {
		r.Obs.Escape(uint8(r.entrySpace), r.entryAddr, obs.EscapeQuarantined, true)
	}
	// Discard the simulator episode; the interpreter resumes at the
	// entry point (its state was never touched). The pages the episode
	// wrote are restored on the next RISC entry.
	r.Sim.Cycles += SwitchPenalty
	r.Switches++
	r.Interludes++
	r.inRISC = false
	if mirrorHook != nil {
		mirrorHook(r, 0, true)
	}
	return true
}

var spaceNames = [2]string{"user", "lib"}

func spaceName(space interp.Space) string { return spaceNames[space&1] }

// procName resolves a procedure index in a space to its name.
func (r *Runner) procName(space interp.Space, proc int) string {
	f := r.Int.CodeFile(space)
	if f == nil || proc < 0 || proc >= len(f.Procs) {
		return "(unknown)"
	}
	return f.Procs[proc].Name
}

// fallbackReason classifies a BreakFallback escape at TNS address p. The
// translator recorded a static reason for every fallback it emitted
// (FallbackWhy); the remaining fallbacks come from millicode EXIT landing
// on a return point absent from the packed PMap, which only drops
// non-register-exact points — hence Unmapped. Unknown should never occur
// (the differential tests assert this).
func (r *Runner) fallbackReason(space interp.Space, p uint16) obs.EscapeReason {
	acc := r.LoadedAccel(space)
	if acc == nil {
		return obs.EscapeUntranslated
	}
	if w, ok := acc.FallbackWhy[p]; ok {
		return obs.EscapeReason(w)
	}
	if _, regExact, ok := acc.PMap.Lookup(p); !ok || !regExact {
		return obs.EscapeUnmapped
	}
	return obs.EscapeUnknown
}

func (r *Runner) runInterp(maxInstrs int64) {
	m := r.Int
	before := m.Prof
	for !m.Halted {
		if maxInstrs > 0 &&
			r.Sim.Instrs+r.InterludeProf.Instrs+(m.Prof.Instrs-before.Instrs) >= maxInstrs {
			break
		}
		if r.TNSBreaks != nil && !r.skipBP &&
			r.TNSBreaks[uint32(m.Space)<<16|uint32(m.P)] {
			r.BPHit = true
			r.BPSpace = m.Space
			r.BPAddr = m.P
			delta := m.Prof.Sub(&before)
			r.InterludeProf.Add(&delta)
			return
		}
		r.skipBP = false
		kind := m.Step()
		if kind == interp.TransferCall || kind == interp.TransferExit {
			// The paper's recovery rule: return to accelerated code at
			// the next call or return that finds a register-exact point.
			if !m.Halted {
				delta := m.Prof.Sub(&before)
				r.InterludeProf.Add(&delta)
				before = m.Prof
				if r.enterRISCIfMapped() {
					return
				}
			}
		}
	}
	delta := m.Prof.Sub(&before)
	r.InterludeProf.Add(&delta)
	if m.Halted {
		r.Halted = true
		r.ExitStatus = m.ExitStatus
		r.Trap = m.Trap
		r.TrapP = m.TrapP
	}
}

func (r *Runner) onSyscall(s *backend.CPU, code uint32) {
	m := r.Int
	switch uint8(code) {
	case tns.SvcHalt:
		m.ExitStatus = uint16(s.Reg[risc.RegMT])
		r.Halted = true
		s.Stopped = true
		s.BreakCode = millicode.BreakHalt
	case tns.SvcPutchar:
		m.Console.WriteByte(byte(s.Reg[risc.RegMT]))
	case tns.SvcPutnum:
		fmt.Fprintf(&m.Console, "%d", int16(s.Reg[risc.RegMT]))
	case tns.SvcPuts:
		ba := s.Reg[risc.RegMT] & 0xFFFF
		n := s.Reg[risc.RegRA] & 0xFFFF
		for i := uint32(0); i < n; i++ {
			m.Console.WriteByte(s.Mem[ba+i])
		}
	}
}

// AdoptInterpreter replaces the runner's interpreter with an existing
// machine mid-execution (dynamic translation hands a running interpreted
// program over to freshly translated code). The machine's memory becomes
// authoritative; its page set says nothing about what the simulator
// holds, so every page is marked and mirrored: the one full copy.
func (r *Runner) AdoptInterpreter(m *interp.Machine) {
	if r.Obs != nil {
		m.Obs = r.Obs
	}
	if r.PGO != nil {
		m.PGO = r.PGO
	}
	r.Int = m
	r.Sim.OnSyscall = r.onSyscall
	m.Dirty.MarkAll()
	r.syncMemToSim()
	r.inRISC = false
}

// Observe attaches rec to every layer of the runner: the interpreter and
// simulator per-instruction hooks, the mode-transition sites, and the
// image's attribution tables for both code spaces (built once with the
// image, describing the sections it actually loaded). Call it once,
// before Run.
func (r *Runner) Observe(rec *obs.Recorder) {
	rec.Attach(r.img.attr)
	r.Obs = rec
	r.Int.Obs = rec
	r.Sim.OnInstr = rec.RISCStep
}

// Capture attaches a PGO capture to the runner and its interpreter, and
// binds it to the run's codefiles for attribution and fingerprint stamping.
// Call it once, before Run; compose freely with Observe.
func (r *Runner) Capture(c *pgo.Capture) {
	c.AttachFiles(r.User, r.Lib)
	r.PGO = c
	r.Int.PGO = c
}

// Report builds the full execution report: the recorder's counters plus the
// runner's cycle pricing ("% time interpreted") and mode-switch total.
func (r *Runner) Report(rec *obs.Recorder) *obs.Report {
	rep := rec.Report()
	tot, rc, ic := r.Cycles()
	rep.Modes.TotalCycles = tot
	rep.Modes.RISCCycles = rc
	rep.Modes.InterpCycles = ic
	rep.Modes.InterpFraction = r.InterpFraction()
	rep.Modes.Switches = int64(r.Switches)
	if r.User.Accel != nil {
		rep.Level = r.User.Accel.Level.String()
	}
	rep.Degraded = r.Degraded
	rep.DegradedReason = r.DegradedReason
	for key, demoted := range r.quarantined {
		if !demoted {
			continue
		}
		space := interp.Space(key >> 31)
		proc := int(key & 0x7FFFFFFF)
		if proc == 0x7FFFFFFF {
			proc = -1
		}
		rep.Quarantined = append(rep.Quarantined, obs.QuarantinedProc{
			Name:  r.procName(space, proc),
			Space: spaceName(space),
			Traps: r.quarTraps[key],
		})
	}
	sort.Slice(rep.Quarantined, func(i, j int) bool {
		if rep.Quarantined[i].Space != rep.Quarantined[j].Space {
			return rep.Quarantined[i].Space < rep.Quarantined[j].Space
		}
		return rep.Quarantined[i].Name < rep.Quarantined[j].Name
	})
	return rep
}

// Console returns the program's console output.
func (r *Runner) Console() string { return r.Int.Console.String() }

// Cycles prices the complete run on the Cyclone/R: simulated RISC cycles
// plus interpreter interludes priced under the software-interpreter model.
func (r *Runner) Cycles() (total, riscCycles, interlude float64) {
	ic := machine.CycloneRInterp.Cycles(&r.InterludeProf.Counts, r.InterludeProf.LongUnits)
	rc := float64(r.Sim.Cycles)
	return rc + ic, rc, ic
}

// InterpFraction reports the fraction of time spent in interpreter mode.
func (r *Runner) InterpFraction() float64 {
	tot, _, ic := r.Cycles()
	if tot == 0 {
		return 0
	}
	return ic / tot
}
