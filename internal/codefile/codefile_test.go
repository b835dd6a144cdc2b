package codefile

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleFile(withAccel bool) *File {
	f := &File{
		Name:        "sample",
		Code:        []uint16{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12},
		Procs:       []Proc{{Name: "main", Entry: 0, ResultWords: 0, ArgWords: 0}, {Name: "f", Entry: 6, ResultWords: 1, ArgWords: 2}},
		MainPEP:     0,
		GlobalWords: 32,
		Data:        []DataSeg{{Addr: 4, Words: []uint16{0xABCD, 0x1234}}},
		Statements:  []Statement{{Addr: 0, Line: 1}, {Addr: 3, Line: 2}},
		Symbols: []Symbol{
			{Proc: -1, Name: "g", Kind: SymGlobal, Addr: 4, Words: 2},
			{Proc: 1, Name: "x", Kind: SymLocal, Addr: 1, Words: 1},
		},
	}
	if withAccel {
		pm := NewPMap(len(f.Code))
		pm.Add(0, 0, true)
		pm.Add(3, 7, false)
		pm.Add(6, 12, true)
		pm.Seal() // producers seal at finalize; Read seals on parse
		f.Accel = &AccelSection{
			Level:      LevelDefault,
			RISC:       []uint32{0xDEADBEEF, 0x12345678},
			Entries:    []int32{0, 12},
			ExpectedRP: []uint8{7, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 1, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
			PMap:       pm,
			Stats:      AccelStats{TNSInstrs: 12, RISCInstrs: 20, RPChecks: 1},
		}
	}
	return f
}

func TestRoundTrip(t *testing.T) {
	for _, withAccel := range []bool{false, true} {
		f := sampleFile(withAccel)
		var buf bytes.Buffer
		if _, err := f.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		g, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(f, g) {
			t.Errorf("withAccel=%v: round trip mismatch:\n got %+v\nwant %+v",
				withAccel, g, f)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6})); err == nil {
		t.Error("expected error on bad magic")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Error("expected error on empty input")
	}
}

func TestProcByName(t *testing.T) {
	f := sampleFile(false)
	if f.ProcByName("f") != 1 {
		t.Error("ProcByName(f)")
	}
	if f.ProcByName("nope") != -1 {
		t.Error("ProcByName(nope)")
	}
}

func TestProcContaining(t *testing.T) {
	f := sampleFile(false)
	if got := f.ProcContaining(0); got != 0 {
		t.Errorf("ProcContaining(0) = %d", got)
	}
	if got := f.ProcContaining(5); got != 0 {
		t.Errorf("ProcContaining(5) = %d", got)
	}
	if got := f.ProcContaining(6); got != 1 {
		t.Errorf("ProcContaining(6) = %d", got)
	}
	if got := f.ProcContaining(11); got != 1 {
		t.Errorf("ProcContaining(11) = %d", got)
	}
}

func TestStatementAt(t *testing.T) {
	f := sampleFile(false)
	if s := f.StatementAt(3); s == nil || s.Line != 2 {
		t.Error("StatementAt(3)")
	}
	if f.StatementAt(5) != nil {
		t.Error("StatementAt(5) should be nil")
	}
}

func TestPMapLookup(t *testing.T) {
	pm := NewPMap(64)
	pm.Add(0, 0, true)
	pm.Add(2, 5, true)
	pm.Add(9, 20, false)
	pm.Add(60, 90, true)

	for _, c := range []struct {
		tns      uint16
		risc     int
		regExact bool
	}{{0, 0, true}, {2, 5, true}, {9, 20, false}, {60, 90, true}} {
		idx, re, ok := pm.Lookup(c.tns)
		if !ok || idx != c.risc || re != c.regExact {
			t.Errorf("Lookup(%d) = %d,%v,%v; want %d,%v,true",
				c.tns, idx, re, ok, c.risc, c.regExact)
		}
	}
	if _, _, ok := pm.Lookup(1); ok {
		t.Error("Lookup(1) should miss")
	}
	if _, _, ok := pm.Lookup(63); ok {
		t.Error("Lookup(63) should miss")
	}
}

func TestPMapInverse(t *testing.T) {
	pm := NewPMap(64)
	pm.Add(0, 0, true)
	pm.Add(2, 5, true)
	pm.Add(9, 20, false)
	pm.Add(60, 90, true)

	cases := []struct {
		risc int
		tns  uint16
		ok   bool
	}{
		{0, 0, true}, {4, 0, true}, {5, 2, true}, {19, 2, true},
		{20, 9, true}, {89, 9, true}, {90, 60, true}, {1000, 60, true},
	}
	for _, c := range cases {
		tnsAddr, ok := pm.Inverse(c.risc)
		if ok != c.ok || tnsAddr != c.tns {
			t.Errorf("Inverse(%d) = %d,%v; want %d,%v",
				c.risc, tnsAddr, ok, c.tns, c.ok)
		}
	}
	if _, ok := pm.Inverse(-1); ok {
		t.Error("Inverse(-1) should miss")
	}
}

// TestPMapMonotonic is the paper's monotonicity property: mapped RISC
// indexes increase with TNS address, which is what makes the inverse lookup
// a binary search.
func TestPMapMonotonic(t *testing.T) {
	f := func(deltas []uint8) bool {
		if len(deltas) > 200 {
			deltas = deltas[:200]
		}
		pm := NewPMap(1024)
		tnsAddr, riscIdx := 0, 0
		type entry struct {
			t uint16
			r int
		}
		var entries []entry
		for _, d := range deltas {
			tnsAddr += 1 + int(d%5)
			riscIdx += 1 + int(d%23)
			if tnsAddr >= 1024 {
				break
			}
			pm.Add(uint16(tnsAddr), riscIdx, true)
			entries = append(entries, entry{uint16(tnsAddr), riscIdx})
		}
		last := -1
		for _, e := range entries {
			idx, _, ok := pm.Lookup(e.t)
			if !ok || idx != e.r || idx <= last {
				return false
			}
			last = idx
			// Inverse must agree.
			back, ok := pm.Inverse(idx)
			if !ok || back != e.t {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPMapSizeBits(t *testing.T) {
	pm := NewPMap(100)
	if pm.SizeBits() != 1200 {
		t.Errorf("SizeBits = %d, want 12 per word", pm.SizeBits())
	}
}

func TestPMapPack(t *testing.T) {
	pm := NewPMap(16)
	pm.Add(1, 3, true)
	pm.Add(4, 9, false) // memory-exact only: excluded from the packed table
	pm.Add(9, 30, true)
	p := pm.Pack()
	groups := int(uint32(p[0])<<24 | uint32(p[1])<<16 | uint32(p[2])<<8 | uint32(p[3]))
	if groups != 2 {
		t.Fatalf("groups = %d", groups)
	}
	offBase := 4 + 4*groups
	if p[offBase+1] == 0xFF {
		t.Error("word 1 should be mapped in packed table")
	}
	if p[offBase+4] != 0xFF {
		t.Error("memory-exact-only word 4 must be excluded from packed table")
	}
	if p[offBase+9] == 0xFF {
		t.Error("word 9 should be mapped")
	}
	if len(p) != offBase+16 {
		t.Errorf("packed len = %d", len(p))
	}
}

func TestPMapGroupOverflowErrors(t *testing.T) {
	pm := NewPMap(16)
	if err := pm.Add(0, 0, true); err != nil {
		t.Fatal(err)
	}
	if err := pm.Add(1, 400, true); err == nil {
		t.Error("expected error on group offset overflow")
	}
	if err := pm.Add(0xFFFF, 1, true); err == nil {
		t.Error("expected error on out-of-range address")
	}
	// The failed adds must not have mapped anything.
	if _, _, ok := pm.Lookup(1); ok {
		t.Error("overflowing add left a mapping behind")
	}
}

func TestAccelLevelString(t *testing.T) {
	if LevelFast.String() != "Fast" || LevelNone.String() != "None" ||
		LevelStmtDebug.String() != "StmtDebug" || LevelDefault.String() != "Default" {
		t.Error("AccelLevel.String")
	}
}

// TestReadFuzz: Read must reject or cleanly error on arbitrary byte soup,
// never panic.
func TestReadFuzz(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatalf("Read panicked on %x", data)
			}
		}()
		_, _ = Read(bytes.NewReader(data))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	// Truncations of a valid file must error, not panic.
	valid := sampleFile(true)
	var buf bytes.Buffer
	valid.WriteTo(&buf)
	whole := buf.Bytes()
	for cut := 0; cut < len(whole); cut += 7 {
		if _, err := Read(bytes.NewReader(whole[:cut])); err == nil {
			t.Errorf("truncation at %d silently accepted", cut)
		}
	}
}

// TestParseLevel: every spelling a command accepts, in any case, and a
// typed refusal for the rest.
func TestParseLevel(t *testing.T) {
	for _, c := range []struct {
		in   string
		want AccelLevel
	}{
		{"stmtdebug", LevelStmtDebug}, {"stmt-debug", LevelStmtDebug},
		{"statementdebug", LevelStmtDebug}, {"debug", LevelStmtDebug},
		{"StmtDebug", LevelStmtDebug}, {"DEBUG", LevelStmtDebug},
		{"default", LevelDefault}, {"", LevelDefault}, {"Default", LevelDefault},
		{"fast", LevelFast}, {"FAST", LevelFast},
	} {
		got, err := ParseLevel(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	for _, in := range []string{"none", "stmt", "fastest", "1", " fast"} {
		if got, err := ParseLevel(in); err == nil {
			t.Errorf("ParseLevel(%q) = %v, want an error", in, got)
		}
	}
}
