package codefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryBitFlipRejected is the blanket integrity guarantee of format v5:
// flip any single bit anywhere in a serialized codefile and Read must
// reject it with a typed corruption error — every payload byte is covered
// by some section checksum, and the checksum bytes are themselves compared.
func TestEveryBitFlipRejected(t *testing.T) {
	data, _ := sampleAccelFile().Marshal()
	for i := range data {
		for bit := uint(0); bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[i] ^= 1 << bit
			_, err := Read(bytes.NewReader(mut))
			if err == nil {
				t.Fatalf("flip of byte %d bit %d accepted", i, bit)
			}
			if !IsCorrupt(err) {
				t.Fatalf("flip of byte %d bit %d: untyped error %v", i, bit, err)
			}
		}
	}
}

// TestDamageAttributedToSection: a flip inside a section's payload is
// reported against that section, so a runner can drop a corrupt
// acceleration while trusting the intact CISC image.
func TestDamageAttributedToSection(t *testing.T) {
	data, spans := sampleAccelFile().Marshal()
	for _, sp := range spans {
		if sp.End-4-sp.Start == 0 {
			continue // no payload bytes to damage
		}
		// Flip mid-payload; for the header that lands in the name, past
		// the magic and version words that fail with their own checks.
		at := sp.Start + (sp.End - 4 - sp.Start) - 1
		mut := append([]byte(nil), data...)
		mut[at] ^= 0x10
		_, err := Read(bytes.NewReader(mut))
		var ce *ErrCorrupt
		if !asCorrupt(err, &ce) {
			t.Fatalf("%s: flip at %d not a typed corruption: %v", sp.ID, at, err)
		}
		if ce.Section != sp.ID {
			t.Errorf("flip in %s attributed to %s (%v)", sp.ID, ce.Section, err)
		}
	}
}

func asCorrupt(err error, ce **ErrCorrupt) bool {
	if err == nil {
		return false
	}
	c, ok := err.(*ErrCorrupt)
	if ok {
		*ce = c
	}
	return ok
}

// TestEveryTruncationRejected: any prefix of a serialized codefile is
// rejected with a typed error — there is no length at which a truncated
// file accidentally parses.
func TestEveryTruncationRejected(t *testing.T) {
	data, _ := sampleAccelFile().Marshal()
	for n := 0; n < len(data); n++ {
		_, err := Read(bytes.NewReader(data[:n]))
		if err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(data))
		}
		if !IsCorrupt(err) {
			t.Fatalf("truncation to %d: untyped error %v", n, err)
		}
	}
}

// TestTrailingGarbageRejected: the format is self-terminating.
func TestTrailingGarbageRejected(t *testing.T) {
	data, _ := sampleAccelFile().Marshal()
	for _, tail := range [][]byte{{0}, {0xFF}, bytes.Repeat([]byte{0xAB}, 16)} {
		_, err := Read(bytes.NewReader(append(append([]byte(nil), data...), tail...)))
		if err == nil || !IsCorrupt(err) {
			t.Fatalf("trailing %d bytes: err = %v", len(tail), err)
		}
	}
}

// TestFixChecksum: stomping a payload byte is caught; repairing the
// section's checksum afterwards makes the (content-altered) file load —
// the hole the chaos harness' structural mutators drive through, proving
// that AccelSection.Verify is a needed second line of defense.
func TestFixChecksum(t *testing.T) {
	data, spans := sampleAccelFile().Marshal()
	var code SectionSpan
	for _, sp := range spans {
		if sp.ID == SecCode {
			code = sp
		}
	}
	mut := append([]byte(nil), data...)
	mut[code.Start+5] ^= 0x01 // inside the code payload
	if _, err := Read(bytes.NewReader(mut)); err == nil || !IsCorrupt(err) {
		t.Fatalf("stomped code section: err = %v", err)
	}
	FixChecksum(mut, code)
	if _, err := Read(bytes.NewReader(mut)); err != nil {
		t.Fatalf("checksum-repaired file rejected: %v", err)
	}
}

// TestLegacyVersions: a v4 header (the last format without checksums) is
// a typed rejection at the header, and a v5 file — checksums, no backend
// tag — still loads with BackendID 0 and re-serializes as the current
// version.
func TestLegacyVersions(t *testing.T) {
	v4 := []byte("TNSC\x00\x04\x00\x01v\x00\x00\x00\x00")
	_, err := Read(bytes.NewReader(v4))
	var ce *ErrCorrupt
	if !errors.As(err, &ce) || ce.Section != SecHeader || !strings.Contains(err.Error(), "unsupported version 4") {
		t.Fatalf("v4 header: err = %v, want a typed header rejection", err)
	}

	f := sampleAccelFile()
	f.Accel.FallbackWhy = map[uint16]uint8{3: 2}
	want, spans := f.Marshal()
	v5 := append([]byte(nil), want...)
	binary.BigEndian.PutUint16(v5[4:], versionV5)
	FixChecksum(v5, spans[0])
	for _, sp := range spans {
		if sp.ID == SecAccelRISC { // drop the backend tag after the level byte
			v5 = append(v5[:sp.Start+1], v5[sp.Start+2:]...)
			FixChecksum(v5, SectionSpan{ID: sp.ID, Start: sp.Start, End: sp.End - 1})
		}
	}
	g, err := Read(bytes.NewReader(v5))
	if err != nil {
		t.Fatalf("v5 file rejected: %v", err)
	}
	if g.Accel.BackendID != 0 {
		t.Errorf("v5 section loaded with BackendID %d, want 0", g.Accel.BackendID)
	}
	if got, _ := g.Marshal(); !bytes.Equal(got, want) {
		t.Error("v5 load does not re-serialize to the same current image")
	}
}

// verifiableFile is a minimal file whose acceleration section passes
// Verify at riscBase 100 — the baseline the rejection table mutates.
func verifiableFile() *File {
	f := &File{
		Name:  "v",
		Code:  make([]uint16, 8),
		Procs: []Proc{{Name: "main", Entry: 0}},
	}
	pm := NewPMap(8)
	pm.Add(0, 100, true)
	pm.Add(2, 105, true)
	f.Accel = &AccelSection{
		Level:       LevelDefault,
		RISC:        make([]uint32, 20),
		Entries:     []int32{100},
		ExpectedRP:  []uint8{0xFF, 3, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		PMap:        pm,
		FallbackWhy: map[uint16]uint8{1: 2},
	}
	return f
}

// TestVerifyRejectsEachInvariant drives AccelSection.Verify through every
// structural invariant with checksum-valid damage, checking each rejection
// is typed and attributed to the right section.
func TestVerifyRejectsEachInvariant(t *testing.T) {
	if err := verifiableFile().Accel.Verify(verifiableFile(), 100); err != nil {
		t.Fatalf("baseline does not verify: %v", err)
	}
	cases := []struct {
		name string
		mut  func(*File)
		sec  SectionID
	}{
		{"entry count", func(f *File) { f.Accel.Entries = nil }, SecEMap},
		{"entry negative", func(f *File) { f.Accel.Entries[0] = -2 }, SecEMap},
		{"entry below base", func(f *File) { f.Accel.Entries[0] = 99 }, SecEMap},
		{"entry past end", func(f *File) { f.Accel.Entries[0] = 120 }, SecEMap},
		{"entry past pmap point", func(f *File) { f.Accel.Entries[0] = 101 }, SecEMap},
		{"entry unmapped", func(f *File) { f.Procs[0].Entry = 5 }, SecEMap},
		{"rp length", func(f *File) { f.Accel.ExpectedRP = f.Accel.ExpectedRP[:3] }, SecEMap},
		{"rp value", func(f *File) { f.Accel.ExpectedRP[1] = 9 }, SecEMap},
		{"fallback addr", func(f *File) { f.Accel.FallbackWhy[20] = 2 }, SecFallback},
		{"fallback reason", func(f *File) { f.Accel.FallbackWhy[1] = 99 }, SecFallback},
		{"pmap off length", func(f *File) {
			f.Accel.PMap.off = append(f.Accel.PMap.off, offUnmapped)
		}, SecPMap},
		{"pmap base length", func(f *File) {
			f.Accel.PMap.base = append(f.Accel.PMap.base, -1)
		}, SecPMap},
		{"pmap regexact length", func(f *File) {
			f.Accel.PMap.regExact = nil
		}, SecPMap},
		{"pmap unmapped regexact", func(f *File) {
			f.Accel.PMap.regExact[0] |= 1 << 5
		}, SecPMap},
		{"pmap empty base", func(f *File) { f.Accel.PMap.base[0] = -1 }, SecPMap},
		{"pmap out of range", func(f *File) { f.Accel.PMap.off[2] = 25 }, SecPMap},
		{"pmap decreasing", func(f *File) {
			f.Accel.PMap.off[1] = 7 // word 1 -> 107, word 2 -> 105: below predecessor
		}, SecPMap},
	}
	for _, tc := range cases {
		f := verifiableFile()
		tc.mut(f)
		err := f.Accel.Verify(f, 100)
		var ce *ErrCorrupt
		if !asCorrupt(err, &ce) {
			t.Errorf("%s: err = %v, want typed corruption", tc.name, err)
			continue
		}
		if ce.Section != tc.sec {
			t.Errorf("%s: attributed to %s, want %s", tc.name, ce.Section, tc.sec)
		}
	}
}

// TestHandCorruptedPMapIsSafe: a PMap with deliberately skewed internals
// must stay panic-free under Lookup, Inverse and Pack — damage reads as
// "unmapped", never as a fabricated index (the regression guard for the
// former reachable panic in the PMap paths).
func TestHandCorruptedPMapIsSafe(t *testing.T) {
	build := func() PMap {
		pm := NewPMap(16)
		pm.Add(0, 40, true)
		pm.Add(9, 55, true)
		return pm
	}

	pm := build()
	pm.base = pm.base[:1] // drop word 9's group base
	if _, _, ok := pm.Lookup(9); ok {
		t.Error("Lookup fabricated a point from a missing group base")
	}
	if _, _, ok := pm.Lookup(0); !ok {
		t.Error("intact point lost")
	}

	pm = build()
	pm.regExact = nil
	if _, re, ok := pm.Lookup(9); !ok || re {
		t.Errorf("Lookup on missing regExact = (%v,%v), want mapped but not exact", re, ok)
	}

	pm = build()
	pm.off = pm.off[:4]
	if _, _, ok := pm.Lookup(9); ok {
		t.Error("Lookup past truncated offset array reported mapped")
	}
	pm.Lookup(0xFFFF)
	pm.Inverse(1 << 30)
	pm.cacheValid = false
	pm.Pack()

	// Add on a hostile address errors instead of panicking.
	pm = build()
	if err := pm.Add(5000, 60, true); err == nil {
		t.Error("out-of-range Add accepted")
	}
}

// mainPEPOutOfRange serializes a one-procedure codefile whose main entry
// names procedure 7: every checksum is valid, only the PEP index is wrong.
func mainPEPOutOfRange() []byte {
	f := &File{
		Name:    "pep7",
		Code:    []uint16{0x0000},
		MainPEP: 7,
		Procs:   []Proc{{Name: "main", Entry: 0}},
	}
	var buf bytes.Buffer
	f.WriteTo(&buf)
	return buf.Bytes()
}

// TestReadRejectsMainPEPOutOfRange: Read rejects a file whose main PEP
// names no procedure as corrupt metadata, instead of handing the runtime
// an index it would fault on. The same bytes are a FuzzParseCodefile seed.
func TestReadRejectsMainPEPOutOfRange(t *testing.T) {
	data := mainPEPOutOfRange()
	_, err := Read(bytes.NewReader(data))
	var ce *ErrCorrupt
	if !errors.As(err, &ce) || ce.Section != SecMeta || !strings.Contains(ce.Detail, "main PEP 7") {
		t.Fatalf("Read = %v, want a corrupt meta section naming main PEP 7", err)
	}
	seed, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzParseCodefile", "main-pep-7"))
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data); string(seed) != want {
		t.Errorf("fuzz seed main-pep-7 is not this file's serialization:\n%s", seed)
	}
}
