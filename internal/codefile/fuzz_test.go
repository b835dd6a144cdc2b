package codefile

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// sampleAccelFile builds a small but fully-populated codefile — every
// section present, including an acceleration section with a non-trivial
// PMap — the shape the fuzzers and the integrity tests mutate from.
func sampleAccelFile() *File {
	f := &File{
		Name:        "seed",
		Code:        []uint16{0x0017, 0x1234, 0x8001, 0x0000, 0xFFFF, 0x0203},
		MainPEP:     1,
		GlobalWords: 8,
		Procs: []Proc{
			{Name: "two", Entry: 0, ResultWords: 2, ArgWords: 0},
			{Name: "main", Entry: 2, ResultWords: 0, ArgWords: 1},
		},
		Data: []DataSeg{
			{Addr: 4, Words: []uint16{1, 2, 3}},
		},
		Statements: []Statement{
			{Addr: 0, Line: 3}, {Addr: 2, Line: 7},
		},
		Symbols: []Symbol{
			{Proc: -1, Name: "total", Kind: SymGlobal, Addr: 0, Words: 1},
			{Proc: 1, Name: "i", Kind: SymLocal, Addr: 1, Words: 1},
		},
	}
	pm := NewPMap(len(f.Code))
	pm.Add(0, 0, true)
	pm.Add(2, 5, true)
	pm.Add(3, 9, false)
	f.Accel = &AccelSection{
		Level:      LevelDefault,
		RISC:       []uint32{0x3C0100FF, 0x00000000, 0x08000010},
		Entries:    []int32{0x10000, -1},
		ExpectedRP: []uint8{0xFF, 3, 0xFF, 0xFF, 0xFF, 0xFF},
		PMap:       pm,
		Stats:      AccelStats{TNSInstrs: 6, RISCInstrs: 3},
	}
	return f
}

// fuzzSeedFile is sampleAccelFile's serialization.
func fuzzSeedFile() []byte {
	data, _ := sampleAccelFile().Marshal()
	return data
}

// FuzzParseCodefile throws arbitrary bytes at the codefile deserializer.
// Parse must never panic or allocate unboundedly, it and Read must agree
// with the reference decoder on every input, and any input they accept
// must survive a stable serialize/parse/serialize round trip.
func FuzzParseCodefile(f *testing.F) {
	f.Add(fuzzSeedFile())
	f.Add([]byte{})
	f.Add([]byte{0x54, 0x4E, 0x53, 0x43})                         // magic only
	f.Add([]byte{0x54, 0x4E, 0x53, 0x43, 0x00, 0x03, 0x00, 0x00}) // magic+version
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := CompareWithReference(data); err != nil {
			t.Fatal(err)
		}
		cf, err := Parse(data)
		if err != nil {
			return
		}
		var once bytes.Buffer
		if _, err := cf.WriteTo(&once); err != nil {
			t.Fatalf("serializing an accepted file: %v", err)
		}
		cf2, err := Read(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("reparsing own serialization: %v", err)
		}
		var twice bytes.Buffer
		if _, err := cf2.WriteTo(&twice); err != nil {
			t.Fatalf("second serialization: %v", err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("round trip not stable: %d vs %d bytes", once.Len(), twice.Len())
		}
	})
}

// accelFuzzParts splits the serialized sample file at the end of the meta
// section: the prefix ends with the acceleration-present flag set, so
// whatever follows is parsed as the four acceleration sections (RISC,
// EMap, PMap, Fallback) with their v5 checksums.
func accelFuzzParts() (prefix, suffix []byte) {
	data, spans := sampleAccelFile().Marshal()
	for _, sp := range spans {
		if sp.ID == SecMeta {
			return data[:sp.End], data[sp.End:]
		}
	}
	panic("no meta section")
}

// accelFuzzVariants are the deliberate corpus seeds, each aimed at one
// gate of the v5 integrity layer: the pristine suffix (full parse +
// Verify), truncations, checksum damage, a count skew, and a
// checksum-valid but structurally incoherent section that only
// AccelSection.Verify can reject.
func accelFuzzVariants() map[string][]byte {
	_, suffix := accelFuzzParts()
	v := map[string][]byte{
		"pristine":  suffix,
		"empty":     {},
		"truncated": suffix[:len(suffix)/2],
	}
	crc := append([]byte(nil), suffix...)
	crc[len(crc)-1] ^= 0x40 // fallback section checksum
	v["crc-stomp"] = crc

	count := append([]byte(nil), suffix...)
	// Byte 1 begins the RISC word count (after the level byte); force it
	// implausible and repair the section checksum so the count gate, not
	// the checksum, rejects it.
	count[1] = 0xFF
	data, spans := sampleAccelFile().Marshal()
	for _, sp := range spans {
		if sp.ID == SecAccelRISC {
			whole := append(append([]byte(nil), data[:len(data)-len(count)]...), count...)
			FixChecksum(whole, sp)
			v["count-skew"] = whole[len(data)-len(count):]
		}
	}

	f := sampleAccelFile()
	f.Accel.Entries[0] = 1 << 24 // structurally incoherent, checksums fine
	bad, badSpans := f.Marshal()
	for _, sp := range badSpans {
		if sp.ID == SecMeta {
			v["verify-reject"] = bad[sp.End:]
		}
	}
	return v
}

// FuzzParseAccelSection fuzzes only the acceleration sections behind a
// fixed valid CISC prefix: the deserializer must agree with the reference
// decoder, reject damage with typed errors, never panic, and anything it
// accepts must survive Verify without panicking and round-trip stably. Seeds beyond f.Add live in
// testdata/fuzz/FuzzParseAccelSection (see TestRegenAccelFuzzCorpus).
func FuzzParseAccelSection(f *testing.F) {
	prefix, _ := accelFuzzParts()
	for _, seed := range accelFuzzVariants() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, tail []byte) {
		data := append(append([]byte(nil), prefix...), tail...)
		if err := CompareWithReference(data); err != nil {
			t.Fatal(err)
		}
		cf, err := Parse(data)
		if err != nil {
			if !IsCorrupt(err) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		if cf.Accel != nil {
			_ = cf.Accel.Verify(cf, 0x010000) // any verdict, but no panic
		}
		var once bytes.Buffer
		if _, err := cf.WriteTo(&once); err != nil {
			t.Fatalf("serializing an accepted file: %v", err)
		}
		cf2, err := Read(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("reparsing own serialization: %v", err)
		}
		var twice bytes.Buffer
		cf2.WriteTo(&twice)
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("round trip not stable")
		}
	})
}

// TestRegenAccelFuzzCorpus rewrites the checked-in fuzz corpus from
// accelFuzzVariants (run with REGEN_FUZZ_CORPUS=1 after a format change);
// normally it just asserts the checked-in files match the variants.
func TestRegenAccelFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzParseAccelSection")
	regen := os.Getenv("REGEN_FUZZ_CORPUS") != ""
	if regen {
		if err := os.MkdirAll(dir, 0o777); err != nil {
			t.Fatal(err)
		}
	}
	for name, b := range accelFuzzVariants() {
		want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", b)
		path := filepath.Join(dir, name)
		if regen {
			if err := os.WriteFile(path, []byte(want), 0o666); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (set REGEN_FUZZ_CORPUS=1 to regenerate)", err)
		}
		if string(got) != want {
			t.Errorf("%s is stale (set REGEN_FUZZ_CORPUS=1 to regenerate)", name)
		}
	}
}

// FuzzPMapLookup drives the PMap through arbitrary legal Add sequences
// (increasing TNS and RISC order, as the Accelerator emits them) and checks
// that Lookup round-trips every inserted point exactly, never invents
// points, and that Inverse and Pack stay consistent and panic-free.
func FuzzPMapLookup(f *testing.F) {
	f.Add(uint16(64), []byte{0, 0, 1, 2, 7, 30, 3, 3})
	f.Add(uint16(8), []byte{0, 1})
	f.Add(uint16(2048), []byte{9, 20, 1, 1, 1, 1, 200, 5})
	f.Fuzz(func(t *testing.T, n uint16, data []byte) {
		size := int(n)%4096 + 1
		pm := NewPMap(size)

		type point struct {
			idx      int
			regExact bool
		}
		want := map[uint16]point{}
		addr, idx := 0, 0
		for i := 0; i+1 < len(data); i += 2 {
			if i > 0 {
				// Advance monotonically: 1..8 TNS words, 1..31 RISC words.
				// A group spans 8 TNS words, so the intra-group delta stays
				// below Add's 8-bit budget by construction.
				addr += 1 + int(data[i]%8)
				idx += 1 + int(data[i+1]%31)
			} else {
				addr = int(data[i] % 8)
				idx = int(data[i+1])
			}
			if addr >= size {
				break
			}
			re := data[i+1]&1 == 0
			pm.Add(uint16(addr), idx, re)
			want[uint16(addr)] = point{idx, re}
		}

		for a, p := range want {
			got, re, ok := pm.Lookup(a)
			if !ok {
				t.Fatalf("Lookup(%d): inserted point reported unmapped", a)
			}
			if got != p.idx || re != p.regExact {
				t.Fatalf("Lookup(%d) = (%d,%v), want (%d,%v)",
					a, got, re, p.idx, p.regExact)
			}
			if ta, ok := pm.Inverse(p.idx); !ok || ta != a {
				t.Fatalf("Inverse(%d) = (%d,%v), want (%d,true)", p.idx, ta, ok, a)
			}
		}
		for a := 0; a < size; a++ {
			if _, ok := want[uint16(a)]; ok {
				continue
			}
			if _, _, ok := pm.Lookup(uint16(a)); ok {
				t.Fatalf("Lookup(%d): unmapped address reported mapped", a)
			}
		}
		// Out-of-range lookups and serialization must not panic.
		pm.Lookup(uint16(size))
		pm.Lookup(0xFFFF)
		if got := len(pm.Pack()); got != 4+4*len(pm.base)+size {
			t.Fatalf("Pack length %d", got)
		}
		if pm.Len() != size {
			t.Fatalf("Len = %d, want %d", pm.Len(), size)
		}
	})
}
