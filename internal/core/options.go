// Package core implements the Accelerator: the static object-code
// translator that is the primary contribution of Andrews & Sand 1992. It
// reads a TNS codefile, recovers control flow (including CASE jump tables
// embedded in the code), performs interprocedural RP analysis to assign an
// absolute register-stack position to every instruction, runs live/dead
// analysis over the eight stack registers and the condition code, and
// generates optimized RISC code plus the PMap that ties the two instruction
// streams together at register-exact and memory-exact points. Puzzles the
// static analysis cannot settle become run-time checks or interpreter
// fallbacks, never wrong code.
package core

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync/atomic"

	"tnsr/internal/backend"
	"tnsr/internal/backend/mips"
	"tnsr/internal/codefile"
	"tnsr/internal/millicode"
	"tnsr/internal/obs"
	"tnsr/internal/pgo"
)

// Options controls a translation, mirroring the paper's user-visible knobs.
type Options struct {
	// Level selects StmtDebug, Default or Fast translation.
	Level codefile.AccelLevel

	// Backend selects the RISC target the analysis core's virtual stream
	// is encoded for. Nil means the MIPS/R3000 default — the paper's
	// target and the only one whose bytes predate the backend seam. The
	// backend's identity is folded into TransKey and stamped into the
	// acceleration section so a runner never simulates code with the
	// wrong target.
	Backend backend.Backend

	// Hints carries the optional "translation hints" the paper describes:
	// never needed for correctness, only to avoid interpreter interludes.
	Hints Hints

	// LibSummaries gives result-size summaries for the system library
	// ("standard library descriptions"): PEP index -> result words.
	// AcceleratePair derives them from the library it translates
	// (codefile.File.Summaries).
	LibSummaries map[uint16]int8

	// IgnoreSummaries makes the Accelerator discard the compiler's
	// per-procedure result-size summaries and rely on its own recursive
	// analysis and guessing — the paper's "older codefiles" situation.
	IgnoreSummaries bool

	// SelectProcs, when non-nil, restricts translation to the named
	// procedures; calls to untranslated procedures fall into interpreter
	// mode. This implements the call/return design's "future possibility
	// of selectively accelerating just the most time-consuming
	// subroutines of a program".
	SelectProcs map[string]bool

	// CodeBase is the word index in the RISC code space where this
	// codefile's translation will be loaded. Leave it 0: the base is a
	// function of Space (millicode.CodeBase), which is what every loader,
	// cache and verifier assumes. Any value other than 0 or
	// millicode.CodeBase(Space) is an error; the field remains only because
	// perfbench's paper workloads still spell the library base out.
	CodeBase uint32

	// Space is the codefile's code-space bit (0 user, 1 library), stored
	// into $env by prologues so stack markers record the right space.
	// AcceleratePair sets it for a program's two codefiles; any other
	// value is an error.
	Space uint8

	// Workers is the number of translation workers procedure translation
	// fans out to after the shared analysis phases. 0 (or negative) means
	// runtime.GOMAXPROCS(0). The emitted acceleration section is
	// byte-identical for every worker count; the knob trades wall-clock
	// translation latency only.
	Workers int

	// Ablation switches, for quantifying the optimizations the paper names
	// (see the ablation benchmarks). All default off.
	DisableFlagElision bool // compute CC at every flag-setting instruction
	DisableCSE         bool // no reuse of fetches and address computations
	DisableSchedule    bool // no delay-slot filling or stall avoidance

	// Sched, when non-nil, replaces the private per-translation worker
	// pool: fragment translation jobs are handed to it instead of to
	// Workers goroutines, so an external scheduler (the tnsxlated
	// work-stealing queue) can interleave fragments from concurrently
	// submitted codefiles. Like Workers, Sched changes wall-clock only —
	// fragments are independent and the merge is positional, so the
	// emitted section is byte-identical under any scheduler — and it is
	// excluded from TransKey for the same reason.
	Sched FragSched

	// Obs, when non-nil, receives per-phase translation timings
	// (analyze/rp/liveness/translate/merge/schedule/finalize). Nil costs
	// nothing beyond one comparison per phase.
	Obs *obs.Recorder

	// Profile, when non-nil, feeds a prior run's observations back into
	// analysis (profile-guided retranslation): observed result sizes
	// replace guesses at unprovable call sites (still backed by the
	// run-time RP check), conflicting RP joins whose single observed RP
	// confirms the propagated value become guarded blocks instead of
	// unconditional fallbacks, and XCAL dispatch gains direct-call fast
	// paths for observed targets. The profile is advisory: every use keeps
	// its run-time guard, so a wrong or stale profile costs interludes,
	// never correctness. A profile whose fingerprint no longer matches the
	// codefile is ignored entirely.
	Profile *pgo.Profile

	// ProfileCover, when > 0 with a Profile attached and SelectProcs
	// unset, restricts translation to the hottest procedures covering this
	// fraction of the profile's residency weight (plus main). 0 translates
	// everything, keeping profiled output observationally identical to
	// unprofiled.
	ProfileCover float64
}

// FragSched executes the independent fragment jobs of one translation. Run
// must call job(k) exactly once for every k in [0, n), possibly concurrently
// and in any order, and return only after every call has finished. The
// default implementation is the private worker pool in parallel.go; the
// tnsxlated service substitutes a queue shared across translations.
type FragSched interface {
	Run(n int, job func(k int))
}

// Hints is the optional per-procedure advice file.
type Hints struct {
	// ReturnValSize overrides the guessed result size of a procedure
	// (by name) — the one hint kind the paper reports customers using
	// (7 programs of 199).
	ReturnValSize map[string]int8
	// XCALResultSize overrides the guessed result size for XCAL sites at
	// specific code addresses (detailed hints "only used by the system
	// library").
	XCALResultSize map[uint16]int8
}

// Default option levels for convenience.
func DefaultOptions() Options {
	return Options{Level: codefile.LevelDefault}
}

// TransKey condenses every knob that affects Accelerate's output — plus the
// input codefile's fingerprint and the serialization format version — into
// 16 hex digits: the retranslation-cache key. Two translations with equal
// keys emit byte-identical acceleration sections (the determinism the
// parallel-pipeline tests already prove), so a cache may serve one's output
// for the other. Workers and Obs are deliberately excluded: they change
// wall-clock and telemetry, never the artifact.
func (o Options) TransKey(fileFingerprint uint64) (string, error) {
	o, err := o.withDefaults()
	if err != nil {
		return "", err
	}
	h := fnv.New64a()
	put := func(parts ...any) {
		fmt.Fprintln(h, parts...)
	}
	put("tnsr/transkey/v1", codefile.FormatVersion, fileFingerprint)
	put("backend", o.Backend.ID(), o.Backend.Name())
	put(o.Level, o.Space, o.CodeBase, o.IgnoreSummaries,
		o.DisableFlagElision, o.DisableCSE, o.DisableSchedule)

	putStringMap := func(tag string, m map[string]int8) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			put(tag, k, m[k])
		}
	}
	putStringMap("hint-ret", o.Hints.ReturnValSize)
	{
		keys := make([]int, 0, len(o.Hints.XCALResultSize))
		for k := range o.Hints.XCALResultSize {
			keys = append(keys, int(k))
		}
		sort.Ints(keys)
		for _, k := range keys {
			put("hint-xcal", k, o.Hints.XCALResultSize[uint16(k)])
		}
	}
	{
		keys := make([]int, 0, len(o.LibSummaries))
		for k := range o.LibSummaries {
			keys = append(keys, int(k))
		}
		sort.Ints(keys)
		for _, k := range keys {
			put("libsum", k, o.LibSummaries[uint16(k)])
		}
	}
	{
		keys := make([]string, 0, len(o.SelectProcs))
		for k, v := range o.SelectProcs {
			if v {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			put("select", k)
		}
	}
	h.Write(milliKeyLines(o.Backend))
	if o.Profile != nil {
		ph, err := o.Profile.Hash()
		if err != nil {
			return "", fmt.Errorf("core: TransKey: %w", err)
		}
		put("profile", ph, o.ProfileCover)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}

// milliLines holds, per backend ID, the millicode label lines TransKey
// hashes (milliKeyLines). The registry gives each target its own ID, and
// a target's labels never change, so each is formatted once.
var milliLines [256]atomic.Pointer[[]byte]

// milliKeyLines returns be's millicode labels as TransKey hashes them:
// one "milli <label> <word>" line per label, in label order.
func milliKeyLines(be backend.Backend) []byte {
	slot := &milliLines[be.ID()]
	if lines := slot.Load(); lines != nil {
		return *lines
	}
	_, milli := be.Millicode()
	keys := make([]string, 0, len(milli))
	for k := range milli {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var lines []byte
	for _, k := range keys {
		lines = fmt.Appendln(lines, "milli", k, milli[k])
	}
	slot.Store(&lines)
	return lines
}

// withDefaults returns a copy of o with every unset knob filled in, or an
// error for a code space other than 0 or 1 or a code base other than that
// space's. All entry points default through this copy, so a caller's
// Options struct is never written to.
func (o Options) withDefaults() (Options, error) {
	if o.Space > 1 {
		return o, fmt.Errorf("core: code space %d (want 0 user or 1 library)", o.Space)
	}
	if o.Level == codefile.LevelNone {
		o.Level = codefile.LevelDefault
	}
	if o.Backend == nil {
		o.Backend = mips.Default
	}
	if base := millicode.CodeBase(o.Space); o.CodeBase == 0 {
		o.CodeBase = base
	} else if o.CodeBase != base {
		return o, fmt.Errorf("core: code base %d for code space %d (want 0 or %d)",
			o.CodeBase, o.Space, base)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	return o, nil
}
