// Package chaos is the fault-injection harness: seeded, reproducible
// mutators over serialized codefiles, plus the differential oracle that
// states the system's integrity contract — every mutant is either rejected
// at load with a typed *codefile.ErrCorrupt, or it executes to an outcome
// identical (xrun.Outcome.Check: halt state, trap, exit status, console and
// data memory) to a pure-interpreter run of the pristine program. No
// panics, no silent divergence.
//
// Two mutator families exercise the two defense layers:
//
//   - Byte-level operators (bit flips, truncation, checksum stomps, version
//     skew, trailing garbage) damage the serialized image without repairing
//     anything; the per-section CRC-32s added in format v5 must reject every
//     one of them at load.
//
//   - Structural operators parse the pristine file, damage one structure
//     (PMap coverage or monotonicity, EMap targets or counts, ExpectedRP
//     values, FallbackWhy sites), and re-serialize — producing a mutant
//     whose checksums are all valid. These model a mutation that repairs
//     its section checksum, and must be caught by AccelSection.Verify: the
//     runner drops the damaged section and executes the intact CISC image
//     interpreted, so the output still matches the oracle.
//
// A third operator, stale-profile injection, retranslates the program under
// a PGO profile whose fingerprint does not match, exercising pgo's
// advisory-only guarantee end to end.
package chaos

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/millicode"
	"tnsr/internal/pgo"
	"tnsr/internal/risc"
	"tnsr/internal/workloads"
	"tnsr/internal/xrun"
)

// Op names one mutation operator. The campaign cycles through all of them
// round-robin, so any campaign of at least NumOps mutants covers every
// operator.
type Op int

const (
	// OpBitFlip flips one random bit anywhere in the serialized image.
	OpBitFlip Op = iota
	// OpTruncate cuts the image short at a random byte.
	OpTruncate
	// OpCRCStomp corrupts the stored checksum of a random section.
	OpCRCStomp
	// OpVersionSkew rewrites the format version to an unsupported value
	// (header checksum repaired, so the version gate itself is what fires).
	OpVersionSkew
	// OpTrailingGarbage appends random bytes after the last section.
	OpTrailingGarbage
	// OpCountSkew forces a section's leading element count implausible and
	// repairs the checksum, so the count bound is what rejects it.
	OpCountSkew
	// OpPMapNonMonotonic replaces the PMap with one whose mapped RISC
	// indexes decrease (checksums valid; Verify must reject).
	OpPMapNonMonotonic
	// OpPMapLengthSkew replaces the PMap with one covering the wrong
	// number of code words (checksums valid; Verify must reject).
	OpPMapLengthSkew
	// OpEMapTargetSkew points one procedure entry outside the translated
	// region (checksums valid; Verify must reject).
	OpEMapTargetSkew
	// OpEMapCountSkew appends a surplus procedure entry (checksums valid;
	// Verify must reject).
	OpEMapCountSkew
	// OpRPSkew plants an invalid ExpectedRP value (checksums valid;
	// Verify must reject).
	OpRPSkew
	// OpFallbackSkew plants an implausible FallbackWhy reason code
	// (checksums valid; Verify must reject).
	OpFallbackSkew
	// OpStaleProfile retranslates the pristine program under a PGO profile
	// with a mismatched fingerprint: the profile must be ignored and the
	// result must run identically.
	OpStaleProfile

	NumOps
)

var opNames = [NumOps]string{
	"bitflip", "truncate", "crc-stomp", "version-skew", "trailing-garbage",
	"count-skew", "pmap-nonmonotonic", "pmap-length-skew", "emap-target-skew",
	"emap-count-skew", "rp-skew", "fallback-skew", "stale-profile",
}

func (o Op) String() string {
	if o >= 0 && o < NumOps {
		return opNames[o]
	}
	return "invalid"
}

// Outcome is a mutant's (acceptable) fate under the oracle.
type Outcome int

const (
	// Rejected: codefile.Parse returned a typed *ErrCorrupt.
	Rejected Outcome = iota
	// RanIdentical: the mutant loaded (possibly with its acceleration
	// dropped) and ran to the pristine interpreter's outcome.
	RanIdentical
)

func (o Outcome) String() string {
	if o == Rejected {
		return "rejected"
	}
	return "ran-identical"
}

// Reference holds the pristine artifacts of one workload: the accelerated
// codefile images the mutators work from, and the pure-interpreter behavior
// the oracle compares against.
type Reference struct {
	Name string

	// UserRaw/LibRaw are the serialized accelerated codefiles (LibRaw nil
	// for library-less workloads); the spans locate their v5 sections.
	UserRaw   []byte
	LibRaw    []byte
	UserSpans []codefile.SectionSpan
	LibSpans  []codefile.SectionSpan

	// User and Lib are the plain (unaccelerated) files the images were
	// translated from, Lib nil without a library: the stale-profile
	// operator retranslates them. They are the caller's files, never
	// written.
	User, Lib *codefile.File

	// Want is the pristine program's outcome under the pure interpreter.
	Want *xrun.Outcome
}

// NewReference builds, accelerates and characterizes one workload.
func NewReference(name string, iterations int, budget int64) (*Reference, error) {
	w, err := workloads.Build(name, iterations)
	if err != nil {
		return nil, err
	}
	// The oracle's ground truth: the pure interpreter on the pristine,
	// unaccelerated program.
	want, err := xrun.Interpret(interp.New(w.User, w.Lib), budget)
	if err != nil {
		return nil, fmt.Errorf("chaos: %s: %w", name, err)
	}
	return NewReferenceFromFiles(name, w.User, w.Lib, want)
}

// NewReferenceFromFiles accelerates and characterizes an arbitrary
// unaccelerated user/lib pair (lib may be nil), so generated programs —
// not just the named workloads — can be placed under chaos mutation. want
// is the pair's outcome under the pure interpreter, the caller's reference
// run. The files are not written.
func NewReferenceFromFiles(name string, user, lib *codefile.File,
	want *xrun.Outcome) (*Reference, error) {

	ref := &Reference{Name: name, User: user, Lib: lib, Want: want}
	u, l, err := core.AcceleratePair(user, lib,
		core.Options{Level: codefile.LevelDefault}, core.Accelerate)
	if err != nil {
		return nil, fmt.Errorf("chaos: %s accelerate: %w", name, err)
	}
	ref.UserRaw, ref.UserSpans = u.Marshal()
	if l != nil {
		ref.LibRaw, ref.LibSpans = l.Marshal()
	}
	return ref, nil
}

// Mutant is one mutated artifact pair: nil means "use the pristine image".
type Mutant struct {
	Op     Op
	Target string // "user" or "lib"
	User   []byte
	Lib    []byte
}

// Mutate applies op to the reference deterministically under rng and
// returns the mutant. Structural operators re-serialize a parsed copy, so
// their checksums are valid by construction and only AccelSection.Verify
// stands between the damage and execution.
func (ref *Reference) Mutate(rng *rand.Rand, op Op) (*Mutant, error) {
	mu := &Mutant{Op: op, Target: "user"}
	raw, spans, space := ref.UserRaw, ref.UserSpans, uint8(0)
	// Half the mutants of a two-file workload hit the library instead.
	if ref.LibRaw != nil && op != OpStaleProfile && rng.Intn(2) == 1 {
		mu.Target = "lib"
		raw, spans, space = ref.LibRaw, ref.LibSpans, 1
	}

	data := append([]byte(nil), raw...)
	switch op {
	case OpBitFlip:
		i := rng.Intn(len(data))
		data[i] ^= 1 << uint(rng.Intn(8))
	case OpTruncate:
		data = data[:rng.Intn(len(data))]
	case OpCRCStomp:
		span := spans[rng.Intn(len(spans))]
		data[span.End-1-rng.Intn(4)] ^= byte(1 + rng.Intn(255))
	case OpVersionSkew:
		v := uint16(rng.Intn(0x10000))
		for v == 4 || v == 5 {
			v = uint16(rng.Intn(0x10000))
		}
		binary.BigEndian.PutUint16(data[4:6], v) // after the 4-byte magic
		codefile.FixChecksum(data, spans[0])
	case OpTrailingGarbage:
		tail := make([]byte, 1+rng.Intn(16))
		rng.Read(tail)
		data = append(data, tail...)
	case OpCountSkew:
		// The code and entry-map sections lead with an element count;
		// force it past the plausibility bound and repair the checksum.
		var candidates []codefile.SectionSpan
		for _, s := range spans {
			if s.ID == codefile.SecCode || s.ID == codefile.SecEMap {
				candidates = append(candidates, s)
			}
		}
		span := candidates[rng.Intn(len(candidates))]
		binary.BigEndian.PutUint32(data[span.Start:span.Start+4],
			uint32(1<<21+rng.Intn(1<<20)))
		codefile.FixChecksum(data, span)
	case OpPMapNonMonotonic, OpPMapLengthSkew, OpEMapTargetSkew,
		OpEMapCountSkew, OpRPSkew, OpFallbackSkew:
		f, err := codefile.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("chaos: pristine %s/%s failed to parse: %w",
				ref.Name, mu.Target, err)
		}
		if err := mutateStructure(f, op, int(millicode.CodeBase(space)), rng); err != nil {
			return nil, err
		}
		data, _ = f.Marshal()
	case OpStaleProfile:
		opts := core.Options{Level: codefile.LevelDefault,
			Profile: staleProfile(ref.User.Name, rng)}
		u, _, err := core.AcceleratePair(ref.User, ref.Lib, opts, userOnly)
		if err != nil {
			return nil, fmt.Errorf("chaos: stale-profile accelerate: %w", err)
		}
		data, _ = u.Marshal()
	default:
		return nil, fmt.Errorf("chaos: unknown op %d", op)
	}

	if mu.Target == "user" {
		mu.User = data
	} else {
		mu.Lib = data
	}
	return mu, nil
}

// userOnly stands in for core.Accelerate in core.AcceleratePair where only
// the user file is retranslated: the library stays untranslated.
func userOnly(f *codefile.File, opts core.Options) error {
	if opts.Space == 1 {
		return nil
	}
	return core.Accelerate(f, opts)
}

// mutateStructure applies one guaranteed-Verify-violating structural
// mutation to a parsed copy of the file. Each arm produces damage that
// AccelSection.Verify provably rejects, so the oracle's expectation for
// these operators is deterministic: load fine, degrade, run interpreted.
func mutateStructure(f *codefile.File, op Op, riscBase int, rng *rand.Rand) error {
	a := f.Accel
	if a == nil {
		return fmt.Errorf("chaos: structural op %s on unaccelerated file", op)
	}
	switch op {
	case OpPMapNonMonotonic:
		// Two points in different groups with decreasing RISC indexes.
		pm := codefile.NewPMap(len(f.Code))
		if err := pm.Add(0, riscBase+100, true); err != nil {
			return err
		}
		if err := pm.Add(8, riscBase+5, true); err != nil {
			return err
		}
		a.PMap = pm
	case OpPMapLengthSkew:
		a.PMap = codefile.NewPMap(len(f.Code) + 1 + rng.Intn(64))
	case OpEMapTargetSkew:
		i := rng.Intn(len(a.Entries))
		if rng.Intn(2) == 0 {
			a.Entries[i] = int32(riscBase - 1 - rng.Intn(16)) // below the region
		} else {
			a.Entries[i] = int32(riscBase + len(a.RISC) + rng.Intn(1024)) // above
		}
	case OpEMapCountSkew:
		a.Entries = append(a.Entries, -1)
	case OpRPSkew:
		if len(a.ExpectedRP) == 0 {
			a.ExpectedRP = []uint8{0xFF} // wrong coverage instead
		} else {
			a.ExpectedRP[rng.Intn(len(a.ExpectedRP))] = uint8(8 + rng.Intn(0xF7-8))
		}
	case OpFallbackSkew:
		if a.FallbackWhy == nil {
			a.FallbackWhy = map[uint16]uint8{}
		}
		a.FallbackWhy[uint16(rng.Intn(len(f.Code)))] = uint8(16 + rng.Intn(200))
	}
	return nil
}

// staleProfile builds a syntactically valid PGO profile whose fingerprint
// cannot match the codefile: the Accelerator must ignore it entirely.
func staleProfile(file string, rng *rand.Rand) *pgo.Profile {
	return &pgo.Profile{
		Schema: pgo.Schema,
		Runs:   1,
		Spaces: []pgo.SpaceProfile{{
			Space:       "user",
			File:        file,
			Fingerprint: fmt.Sprintf("%016x", rng.Uint64()|1<<63),
			CallSites: []pgo.CallSite{{
				Addr:    uint16(rng.Intn(1024)),
				Results: []pgo.ResultCount{{Words: int8(rng.Intn(3)), Count: 17}},
			}},
			RPSites: []pgo.RPSite{{
				Addr: uint16(rng.Intn(1024)),
				RPs:  []pgo.RPCount{{RP: uint8(rng.Intn(8)), Count: 5}},
			}},
		}},
	}
}

// Check runs the differential oracle on one mutant. It returns the
// acceptable outcome, or an error describing the contract violation — a
// panic, an untyped rejection, a run-time failure, or silent divergence
// from the pristine interpreter.
func (ref *Reference) Check(mu *Mutant, budget int64) (outcome Outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()

	userRaw := mu.User
	if userRaw == nil {
		userRaw = ref.UserRaw
	}
	user, uerr := codefile.Parse(userRaw)
	if uerr != nil {
		if mu.User == nil {
			return 0, fmt.Errorf("pristine user image rejected: %v", uerr)
		}
		if !codefile.IsCorrupt(uerr) {
			return 0, fmt.Errorf("untyped rejection: %v", uerr)
		}
		return Rejected, nil
	}
	var lib *codefile.File
	if ref.LibRaw != nil || mu.Lib != nil {
		libRaw := mu.Lib
		if libRaw == nil {
			libRaw = ref.LibRaw
		}
		var lerr error
		lib, lerr = codefile.Parse(libRaw)
		if lerr != nil {
			if mu.Lib == nil {
				return 0, fmt.Errorf("pristine lib image rejected: %v", lerr)
			}
			if !codefile.IsCorrupt(lerr) {
				return 0, fmt.Errorf("untyped rejection: %v", lerr)
			}
			return Rejected, nil
		}
	}

	r, nerr := xrun.New(user, lib, risc.DefaultConfig())
	if nerr != nil {
		return 0, fmt.Errorf("runner construction failed: %v", nerr)
	}
	rerr := r.Run(budget)
	got := r.Outcome()
	// Reached only when the run returned: a mutant that panicked leaves
	// its simulator memory to the garbage collector.
	r.Release()
	if rerr != nil {
		return 0, fmt.Errorf("run failed: %v", rerr)
	}
	if err := ref.Want.Check(got); err != nil {
		return 0, fmt.Errorf("silent divergence: %w", err)
	}
	return RanIdentical, nil
}
