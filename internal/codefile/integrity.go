package codefile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// SectionID names one checksummed region of a serialized codefile. Format
// v5 appends a CRC-32 to every section so damage is attributed to the part
// it hit: a runner can keep the intact CISC image and drop only a corrupt
// acceleration, and the chaos harness can target its mutations.
type SectionID uint8

const (
	// SecHeader covers the magic, version and codefile name.
	SecHeader SectionID = iota
	// SecCode covers the TNS code segment (the CISC image).
	SecCode
	// SecMeta covers the PEP table, entry metadata, data image, statement
	// table, symbols, and the acceleration-present flag.
	SecMeta
	// SecAccelRISC covers the acceleration level and the RISC word array.
	SecAccelRISC
	// SecEMap covers the PEP->RISC entry table and the ExpectedRP array.
	SecEMap
	// SecPMap covers the serialized PMap.
	SecPMap
	// SecFallback covers the translator statistics and the FallbackWhy
	// table.
	SecFallback

	NumSections
)

var sectionNames = [NumSections]string{
	"header", "code", "meta", "accel-risc", "emap", "pmap", "fallback",
}

func (s SectionID) String() string {
	if s < NumSections {
		return sectionNames[s]
	}
	return "invalid"
}

// SectionSpan locates one section inside a serialized v5 codefile:
// [Start, End) covers the payload plus its trailing 4-byte CRC-32, so the
// payload is [Start, End-4) and the checksum [End-4, End). The chaos
// mutators use spans to target (and, for the structural operators, repair)
// individual sections.
type SectionSpan struct {
	ID    SectionID
	Start int
	End   int
}

// ErrCorrupt is the typed load- and verify-time rejection: the section the
// damage was detected in, plus the underlying detail. Every failure mode of
// Parse and Read — bad magic, checksum mismatch, implausible counts,
// truncation — surfaces as an ErrCorrupt, so no caller ever has to
// string-match.
type ErrCorrupt struct {
	Section SectionID
	Detail  string
	Err     error // underlying cause, if any
}

func (e *ErrCorrupt) Error() string {
	switch {
	case e.Detail != "" && e.Err != nil:
		return fmt.Sprintf("codefile: corrupt %s section: %s: %v", e.Section, e.Detail, e.Err)
	case e.Err != nil:
		return fmt.Sprintf("codefile: corrupt %s section: %v", e.Section, e.Err)
	}
	return fmt.Sprintf("codefile: corrupt %s section: %s", e.Section, e.Detail)
}

func (e *ErrCorrupt) Unwrap() error { return e.Err }

func corruptf(sec SectionID, format string, args ...any) *ErrCorrupt {
	return &ErrCorrupt{Section: sec, Detail: fmt.Sprintf(format, args...)}
}

// IsCorrupt reports whether err is (or wraps) a typed corruption error.
func IsCorrupt(err error) bool {
	var e *ErrCorrupt
	return errors.As(err, &e)
}

// FixChecksum recomputes and rewrites the CRC-32 of the section span in a
// serialized v5 codefile. It exists for the chaos harness: a mutation that
// repairs its section's checksum slips past the load-time integrity layer
// on purpose, to prove the deeper structural verification still catches it.
func FixChecksum(data []byte, span SectionSpan) {
	crc := crc32.ChecksumIEEE(data[span.Start : span.End-4])
	binary.BigEndian.PutUint32(data[span.End-4:span.End], crc)
}

// Verify checks the acceleration section's structural invariants against
// its owning file: everything that must hold before the runtime may jump
// into translated code. riscBase is the code-space word index the section
// is loaded at (millicode.CodeBase of the file's space; the PMap and entry
// table store absolute indexes). It returns a typed *ErrCorrupt naming the
// offending section, or nil.
//
// Checksums (checked by Parse) prove the bytes are the ones written;
// Verify proves the structures are coherent with each other — the defense
// against a mutation that recomputes a section checksum, and against a
// translator bug shipping an inconsistent artifact. Neither defends
// against a deliberately forged section whose content is itself a valid
// structure: integrity, not authenticity.
func (a *AccelSection) Verify(f *File, riscBase int) error {
	riscEnd := riscBase + len(a.RISC)

	// PMap: array coherence, in-range targets, strict monotonicity.
	if err := a.PMap.verify(len(f.Code), riscBase, riscEnd); err != nil {
		return err
	}

	// EMap: one entry per PEP procedure, each -1 or a translated entry
	// point that the PMap agrees is register-exact at the same index.
	if len(a.Entries) != len(f.Procs) {
		return corruptf(SecEMap, "%d entries for %d procedures",
			len(a.Entries), len(f.Procs))
	}
	for i, e := range a.Entries {
		if e < 0 {
			if e != -1 {
				return corruptf(SecEMap, "entry %d has negative index %d", i, e)
			}
			continue
		}
		if int(e) < riscBase || int(e) >= riscEnd {
			return corruptf(SecEMap, "entry %d index %d outside [%d,%d)",
				i, e, riscBase, riscEnd)
		}
		// The PMap must agree the procedure entry is a register-exact
		// point at or after the EMap target (the EMap points at the
		// prologue; the PMap's re-entry point lies past the entry check).
		idx, regExact, ok := a.PMap.Lookup(f.Procs[i].Entry)
		if !ok || !regExact || idx < int(e) {
			return corruptf(SecEMap,
				"entry %d (%s at tns %d) maps to %d but PMap says (%d,%v,%v)",
				i, f.Procs[i].Name, f.Procs[i].Entry, e, idx, regExact, ok)
		}
	}

	// ExpectedRP: absent, or one byte per code word, each a valid RP
	// (0..7) or the 0xFF "no expectation" marker.
	if len(a.ExpectedRP) != 0 && len(a.ExpectedRP) != len(f.Code) {
		return corruptf(SecEMap, "ExpectedRP covers %d of %d code words",
			len(a.ExpectedRP), len(f.Code))
	}
	for i, rp := range a.ExpectedRP {
		if rp != 0xFF && rp > 7 {
			return corruptf(SecEMap, "ExpectedRP[%d] = %d", i, rp)
		}
	}

	// FallbackWhy: every recorded fallback site lies inside the code
	// segment and carries a plausible reason code.
	for addr, why := range a.FallbackWhy {
		if int(addr) >= len(f.Code) {
			return corruptf(SecFallback, "fallback site %d outside %d code words",
				addr, len(f.Code))
		}
		if why >= maxFallbackReason {
			return corruptf(SecFallback, "fallback site %d has reason %d", addr, why)
		}
	}
	return nil
}

// maxFallbackReason bounds the obs.EscapeReason codes persisted in
// FallbackWhy (codefile cannot import obs; the bound is deliberately
// loose so appending reasons upstream needs no change here).
const maxFallbackReason = 16

// verify checks a deserialized PMap's invariants: internal array lengths
// coherent with the covered code size, every mapped point inside
// [riscBase, riscEnd), and RISC indexes strictly increasing in TNS address
// order (the monotonicity Inverse's binary search relies on).
func (p *PMap) verify(codeWords, riscBase, riscEnd int) error {
	if len(p.off) != codeWords {
		return corruptf(SecPMap, "covers %d of %d code words", len(p.off), codeWords)
	}
	if want := (codeWords + 7) / 8; len(p.base) != want {
		return corruptf(SecPMap, "%d group bases for %d code words", len(p.base), codeWords)
	}
	if want := (codeWords + 63) / 64; len(p.regExact) != want {
		return corruptf(SecPMap, "%d regExact words for %d code words",
			len(p.regExact), codeWords)
	}
	prev := -1
	for a := 0; a < codeWords; a++ {
		mapped := p.off[a] != offUnmapped
		if !mapped {
			if p.regExact[a/64]&(1<<(a%64)) != 0 {
				return corruptf(SecPMap, "unmapped word %d marked register-exact", a)
			}
			continue
		}
		b := p.base[a/8]
		if b < 0 {
			return corruptf(SecPMap, "word %d mapped in group %d with empty base", a, a/8)
		}
		idx := int(b) + int(p.off[a])
		if idx < riscBase || idx >= riscEnd {
			return corruptf(SecPMap, "word %d maps to %d outside [%d,%d)",
				a, idx, riscBase, riscEnd)
		}
		// Non-decreasing, not strictly increasing: a TNS instruction
		// elided entirely (dead flag ops) leaves its successor mapped to
		// the same RISC word.
		if idx < prev {
			return corruptf(SecPMap, "word %d maps to %d, below predecessor %d",
				a, idx, prev)
		}
		prev = idx
	}
	return nil
}
