// Package obs is the execution-telemetry subsystem: a single event sink
// (the Recorder) that the interpreter, the RISC simulator, the mixed-mode
// runner and the Accelerator all feed. It answers the paper's central
// performance question — how much run time stays in translated RISC code
// versus falling back into the interpreter, and *why* control escapes —
// with typed escape reasons, per-procedure mode residency, PMap lookup
// counters and per-phase translation timings.
//
// The overhead contract: every producer holds a plain *Recorder field that
// is nil by default and checks it before each event, so an unobserved run
// pays one nil-compare per hook site and nothing else. Simulated RISC
// instructions are the exception that keeps observation cheap: the
// simulator counts them per code word in a slice the runner attaches, with
// no call, and the runner folds the counts in (AddRISC) when its run
// returns. A Recorder is not safe for concurrent use; attach one recorder
// per runner (the translation phase timings are recorded only from the
// coordinating goroutine).
//
// obs depends only on codefile (for attribution tables); the execution
// packages depend on obs, never the reverse.
package obs

import (
	"time"

	"tnsr/internal/codefile"
)

// EscapeReason classifies one RISC->interpreter transition (or a refused
// interpreter->RISC re-entry). The numeric values are stable: translators
// persist them in codefile.AccelSection.FallbackWhy.
type EscapeReason uint8

const (
	// EscapeUnknown marks an unclassified escape; the differential tests
	// assert it never occurs, so a nonzero count is a telemetry bug.
	EscapeUnknown EscapeReason = iota
	// EscapeUnmapped: the target TNS address has no register-exact PMap
	// point (the millicode EXIT lookup missed, or a host-side probe failed).
	EscapeUnmapped
	// EscapeComputedJump: the block is reachable only through unanalyzable
	// flow (statement labels, targets without a SETRP clue), so it was
	// translated as an interpreter-only region.
	EscapeComputedJump
	// EscapeIndirectCall: an XCAL dispatch or a site whose RP is
	// indeterminate after a call with unknown result size.
	EscapeIndirectCall
	// EscapeRPConflict: the dynamic RP contradicts the static assumption —
	// a puzzle join, a nonconforming caller at a prologue entry check, or a
	// failed return-point RP confirmation.
	EscapeRPConflict
	// EscapeUntranslated: the callee (or the whole codefile) has no
	// translation, e.g. under selective acceleration.
	EscapeUntranslated
	// EscapeTrap: a TNS trap condition surfaced from translated code.
	EscapeTrap
	// EscapeBreakpoint: a debugger breakpoint stopped execution.
	EscapeBreakpoint
	// EscapeQuarantined: integrity degradation — the accel section failed
	// verification and the run is fully interpreted, or this procedure
	// was demoted to interpreter-only after a trap storm, or translated
	// code was rolled back to its entry point after an unexpected trap.
	EscapeQuarantined

	NumEscapeReasons
)

var escapeNames = [NumEscapeReasons]string{
	"unknown", "unmapped", "computed-jump", "indirect-call",
	"rp-conflict", "untranslated", "trap", "breakpoint", "quarantined",
}

func (e EscapeReason) String() string {
	if e < NumEscapeReasons {
		return escapeNames[e]
	}
	return "invalid"
}

// ReasonFromName maps an escape-reason name back to its value; ok is false
// for unrecognized names.
func ReasonFromName(name string) (EscapeReason, bool) {
	for i, n := range escapeNames {
		if n == name {
			return EscapeReason(i), true
		}
	}
	return EscapeUnknown, false
}

// siteStat accumulates escapes at one (space, TNS address) site.
type siteStat struct {
	space  uint8
	addr   uint16
	reason EscapeReason
	count  int64
}

// procName names one attributed procedure.
type procName struct {
	name  string
	space string // "user", "lib", "milli", or "" for unattributed
}

// procCount accumulates one procedure's instruction residency.
type procCount struct {
	interp int64
	risc   int64
}

// Recorder is the event sink. The exported counters are complete whenever
// the run feeding them returns (xrun's Run and Continue fold the RISC
// counts in before they return); writing is reserved to the event
// methods.
type Recorder struct {
	// Mode residency: instructions executed per mode while attached.
	InterpInstrs int64
	RISCInstrs   int64

	// Transitions. InterpEntries counts interpreter interludes (escapes
	// that actually entered interpreter mode); RISCEntries counts
	// recoveries into translated code.
	InterpEntries int64
	RISCEntries   int64

	// Escapes histograms every escape event by reason.
	Escapes [NumEscapeReasons]int64

	// Host-side PMap probe counters (enterRISCIfMapped); the millicode
	// EXIT lookup runs inside simulated code and is not counted here.
	PMapLookups int64
	PMapHits    int64

	sites map[uint32]*siteStat // space<<16 | addr

	// Per-procedure residency, indexed like attr's procedures. attr is
	// the run image's shared attribution (Attach), empty until then.
	attr   *Attribution
	counts []procCount

	// Translation phase timings, in recording order.
	phaseNames []string
	phaseDur   []time.Duration
}

// NewRecorder returns an empty recorder. It is usable immediately for
// translation timings; Attach a run image's Attribution before a run to
// enable per-procedure attribution.
func NewRecorder() *Recorder {
	return &Recorder{sites: map[uint32]*siteStat{}, attr: &Attribution{}}
}

// Attribution maps executed instructions to procedures for one run image:
// the procedure names, a dense TNS address -> procedure table per code
// space, and a RISC word -> procedure table for each loaded translation.
// It is built once per image and is immutable, so every Recorder attached
// to the image shares it; a Recorder keeps only its counters.
type Attribution struct {
	procs  []procName
	first  [2]int32   // per space: procs index of PEP index 0
	interp [2][]int32 // per space: TNS code word -> procs index

	// RISC attribution over the code space [0, codeWords): millicode
	// below userBase, then each loaded translation's region, split by its
	// entry-point table; every other word is (other).
	codeWords uint32
	userBase  uint32
	regions   [2]riscRegion
	milliID   int32
	otherID   int32
}

// riscRegion is one translation's RISC words, from code word base.
type riscRegion struct {
	base uint32
	ids  []int32
}

// NewAttribution builds the attribution tables of a run image. user and
// lib (lib may be nil) name the procedures. accel holds the acceleration
// section loaded for each space, nil for a space that runs interpreted
// (untranslated, or refused at load), and base[i] the code word it is
// loaded at; millicode occupies [0, base[0]). codeWords is the length of
// the code space. Both kinds of table split words among procedures by
// codefile.Owners: TNS words by PEP entry (File.ProcOf), RISC words by
// translated entry point.
func NewAttribution(user, lib *codefile.File, accel [2]*codefile.AccelSection,
	codeWords int, base [2]int) *Attribution {
	a := &Attribution{codeWords: uint32(codeWords), userBase: uint32(base[0])}
	files := [2]*codefile.File{user, lib}
	spaceNames := [2]string{"user", "lib"}
	for sp, f := range files {
		if f == nil {
			continue
		}
		a.first[sp] = int32(len(a.procs))
		for pi := range f.Procs {
			a.procs = append(a.procs, procName{name: f.Procs[pi].Name, space: spaceNames[sp]})
		}
	}
	a.milliID = int32(len(a.procs))
	a.otherID = a.milliID + 1
	a.procs = append(a.procs, procName{"(millicode)", "milli"}, procName{"(other)", ""})

	for sp, f := range files {
		if f == nil {
			continue
		}
		a.interp[sp] = a.ids(sp, f.ProcOf())
		acc := accel[sp]
		if acc == nil {
			continue
		}
		// Each loaded translation's region is split by its absolute
		// entry-point table; an untranslated procedure's -1 stays
		// negative, so it owns nothing.
		n := max(min(base[sp]+len(acc.RISC), codeWords)-base[sp], 0)
		starts := make([]int, min(len(acc.Entries), len(f.Procs)))
		for pi := range starts {
			starts[pi] = int(acc.Entries[pi]) - base[sp]
		}
		a.regions[sp] = riscRegion{base: uint32(base[sp]), ids: a.ids(sp, codefile.Owners(n, starts))}
	}
	return a
}

// ids rewrites a table of space sp's PEP indexes in place into procs
// indexes, with (other) for words no procedure owns.
func (a *Attribution) ids(sp int, owner []int32) []int32 {
	for w, pi := range owner {
		if pi < 0 {
			owner[w] = a.otherID
		} else {
			owner[w] = a.first[sp] + pi
		}
	}
	return owner
}

// ProcAt returns the PEP index of the procedure whose body holds TNS code
// word addr in the given space, or -1 for a word no procedure owns.
func (a *Attribution) ProcAt(space uint8, addr uint16) int {
	t := a.interp[space&1]
	if int(addr) >= len(t) || t[addr] == a.otherID {
		return -1
	}
	return int(t[addr] - a.first[space&1])
}

// riscProc returns the procedure index of RISC code word pc, or -1 for a
// word outside the code space.
func (a *Attribution) riscProc(pc uint32) int32 {
	switch {
	case pc >= a.codeWords:
		return -1
	case pc < a.userBase:
		return a.milliID
	}
	for i := range a.regions {
		if rg := &a.regions[i]; pc-rg.base < uint32(len(rg.ids)) {
			return rg.ids[pc-rg.base]
		}
	}
	return a.otherID
}

// Attach binds the recorder to a run image's attribution and starts its
// per-procedure counters from zero.
func (r *Recorder) Attach(a *Attribution) {
	r.attr = a
	r.counts = make([]procCount, len(a.procs))
}

// InterpStep records one interpreted instruction at TNS address p in the
// given code space. Hot path: one bounds check and two increments.
func (r *Recorder) InterpStep(space uint8, p uint16) {
	r.InterpInstrs++
	t := r.attr.interp[space&1]
	if int(p) < len(t) {
		r.counts[t[p]].interp++
	}
}

// RISCStep records one simulated RISC instruction at code word index pc:
// the per-step reference AddRISC is tested against.
func (r *Recorder) RISCStep(pc uint32) {
	r.RISCInstrs++
	if id := r.attr.riscProc(pc); id >= 0 {
		r.counts[id].risc++
	}
}

// AddRISC records counts[j] simulated RISC instructions at code word
// index pc+j for every j: the sum of that many RISCStep(pc+j) calls.
func (r *Recorder) AddRISC(pc uint32, counts []int64) {
	for j, c := range counts {
		if c == 0 {
			continue
		}
		r.RISCInstrs += c
		if id := r.attr.riscProc(pc + uint32(j)); id >= 0 {
			r.counts[id].risc += c
		}
	}
}

// Escape records one escape event at (space, addr) with its classified
// reason. enteredInterp is true when the escape actually started an
// interpreter interlude (traps and breakpoints stop the run instead).
func (r *Recorder) Escape(space uint8, addr uint16, reason EscapeReason, enteredInterp bool) {
	if reason >= NumEscapeReasons {
		reason = EscapeUnknown
	}
	r.Escapes[reason]++
	key := uint32(space&1)<<16 | uint32(addr)
	s := r.sites[key]
	if s == nil {
		s = &siteStat{space: space & 1, addr: addr}
		r.sites[key] = s
	}
	s.count++
	s.reason = reason
	if enteredInterp {
		r.InterpEntries++
	}
}

// EnterRISC records a recovery into translated code.
func (r *Recorder) EnterRISC() { r.RISCEntries++ }

// PMapLookup records one host-side PMap probe.
func (r *Recorder) PMapLookup(hit bool) {
	r.PMapLookups++
	if hit {
		r.PMapHits++
	}
}

// Phase accumulates one translation-phase duration. Repeated names (e.g.
// two Accelerate calls, user then library) accumulate into one entry;
// first-recording order is preserved.
func (r *Recorder) Phase(name string, d time.Duration) {
	for i, n := range r.phaseNames {
		if n == name {
			r.phaseDur[i] += d
			return
		}
	}
	r.phaseNames = append(r.phaseNames, name)
	r.phaseDur = append(r.phaseDur, d)
}
