package codefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"
)

// referenceSample is sampleAccelFile with fallback sites, so every field
// of the format is populated, in its current serialization and relabeled
// as v5 (no backend byte).
func referenceSample() (v6, v5 []byte) {
	f := sampleAccelFile()
	f.Accel.FallbackWhy = map[uint16]uint8{3: 2, 5: 1}
	v6, spans := f.Marshal()
	v5 = append([]byte(nil), v6...)
	binary.BigEndian.PutUint16(v5[4:], versionV5)
	FixChecksum(v5, spans[0])
	for _, sp := range spans {
		if sp.ID == SecAccelRISC {
			v5 = append(v5[:sp.Start+1], v5[sp.Start+2:]...)
			FixChecksum(v5, SectionSpan{ID: sp.ID, Start: sp.Start, End: sp.End - 1})
		}
	}
	return v6, v5
}

// TestParseMatchesReferenceOnDamage: Parse, Read and the reference
// decoder agree on every prefix and every single-bit flip of a fully
// populated accelerated file, in both loadable versions.
func TestParseMatchesReferenceOnDamage(t *testing.T) {
	v6, v5 := referenceSample()
	for _, c := range []struct {
		name string
		data []byte
	}{{"v6", v6}, {"v5", v5}} {
		for n := 0; n <= len(c.data); n++ {
			if err := CompareWithReference(c.data[:n]); err != nil {
				t.Fatalf("%s prefix of %d bytes: %v", c.name, n, err)
			}
		}
		for i := range c.data {
			for bit := uint(0); bit < 8; bit++ {
				mut := append([]byte(nil), c.data...)
				mut[i] ^= 1 << bit
				if err := CompareWithReference(mut); err != nil {
					t.Fatalf("%s flip of byte %d bit %d: %v", c.name, i, bit, err)
				}
			}
		}
		for _, tail := range [][]byte{{0}, {1, 2, 3}} {
			if err := CompareWithReference(append(append([]byte(nil), c.data...), tail...)); err != nil {
				t.Fatalf("%s with %d trailing bytes: %v", c.name, len(tail), err)
			}
		}
	}
}

// TestParseMatchesReferenceOnCorpus: the checked-in fuzz corpora decode
// the same through Parse, Read and the reference decoder.
func TestParseMatchesReferenceOnCorpus(t *testing.T) {
	prefix, _ := accelFuzzParts()
	for _, c := range []struct {
		dir    string
		prefix []byte
	}{{"FuzzParseCodefile", nil}, {"FuzzParseAccelSection", prefix}} {
		paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", c.dir, "*"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: no corpus (%v)", c.dir, err)
		}
		for _, path := range paths {
			entry, err := corpusBytes(path)
			if err != nil {
				t.Fatal(err)
			}
			data := append(append([]byte(nil), c.prefix...), entry...)
			if err := CompareWithReference(data); err != nil {
				t.Errorf("%s: %v", path, err)
			}
		}
	}
}

// corpusBytes decodes a one-value []byte fuzz corpus file.
func corpusBytes(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" {
		return nil, fmt.Errorf("%s: not a one-value corpus file", path)
	}
	lit, ok := strings.CutPrefix(lines[1], "[]byte(")
	if !ok || !strings.HasSuffix(lit, ")") {
		return nil, fmt.Errorf("%s: not a []byte value", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
	return []byte(s), err
}

// TestMarshalMatchesReference: Marshal writes the reference writer's bytes
// and spans into a buffer of exactly the output's length, for files with
// and without acceleration, an empty file, and a name too long for its
// 16-bit length field (written as the reference writes it: the length
// wraps, the whole name follows).
func TestMarshalMatchesReference(t *testing.T) {
	for _, c := range []struct {
		name string
		f    *File
	}{
		{"plain", sampleFile(false)},
		{"accelerated", sampleFile(true)},
		{"fuzz seed", sampleAccelFile()},
		{"verifiable", verifiableFile()},
		{"empty", &File{}},
		{"empty accel", &File{Accel: &AccelSection{}}},
		{"long name", &File{Name: strings.Repeat("n", 70000)}},
	} {
		if err := CompareMarshal(c.f); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if data, _ := c.f.Marshal(); cap(data) != len(data) {
			t.Errorf("%s: Marshal's buffer has capacity %d for %d bytes", c.name, cap(data), len(data))
		}
	}
}

// TestParseCopiesData: the parsed file keeps nothing of the input slice,
// so a caller may reuse or scribble over it.
func TestParseCopiesData(t *testing.T) {
	want, _ := referenceSample()
	data := append([]byte(nil), want...)
	f, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xA5
	}
	if got, _ := f.Marshal(); !bytes.Equal(got, want) {
		t.Error("scribbling over Parse's input changed the parsed file")
	}
}

// allocated returns the fewest bytes fn allocated in three runs.
func allocated(fn func()) uint64 {
	least := ^uint64(0)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestHostileCountRefusedBeforeAllocating: a count at the cap with nothing
// behind it — a valid CISC image, then a RISC array, PMap or fallback
// table that claims 2^20 elements and ends — is refused as the reference
// refuses it, typed, without allocating for the elements it claims.
// (The reference decoder allocates 4 MiB for the RISC case. Its
// truncation lands in the fallback section because an untyped failure is
// attributed where the parse stops; Parse keeps that attribution.)
func TestHostileCountRefusedBeforeAllocating(t *testing.T) {
	data, spans := sampleAccelFile().Marshal()
	at := map[SectionID]int{}
	for _, sp := range spans {
		at[sp.ID] = sp.Start
	}
	count := binary.BigEndian.AppendUint32(nil, maxCount)
	risc := append(append(append([]byte(nil), data[:at[SecAccelRISC]]...), byte(LevelDefault), 0), count...)
	// The PMap's offset count follows its base array.
	nbase := int(binary.BigEndian.Uint32(data[at[SecPMap]:]))
	offAt := at[SecPMap] + 4 + 4*nbase
	pmap := append(append([]byte(nil), data[:offAt]...), count...)
	// The fallback table's count follows nine 64-bit statistics.
	fallback := append(append([]byte(nil), data[:at[SecFallback]+9*8]...), count...)
	for _, c := range []struct {
		name string
		data []byte
	}{{"risc", risc}, {"pmap", pmap}, {"fallback", fallback}} {
		if err := CompareWithReference(c.data); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, err := Parse(c.data)
		var ce *ErrCorrupt
		if !errors.As(err, &ce) || !errors.Is(err, io.EOF) {
			t.Fatalf("%s: Parse = %v, want a typed truncation", c.name, err)
		}
		if n := allocated(func() { Parse(c.data) }); n >= 64<<10 {
			t.Errorf("%s: Parse allocated %d bytes for a %d-byte file", c.name, n, len(c.data))
		}
		if n := allocated(func() { Read(bytes.NewReader(c.data)) }); n >= 64<<10 {
			t.Errorf("%s: Read allocated %d bytes for a %d-byte file", c.name, n, len(c.data))
		}
	}
}

// countingReader counts what is read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// zeros is an endless stream of zero bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestReadRefusesNonCodefileAtOnce: a stream that does not begin with the
// magic and a supported version is refused after its preamble, however
// much more it holds.
func TestReadRefusesNonCodefileAtOnce(t *testing.T) {
	for _, c := range []struct {
		name   string
		stream io.Reader
		want   string
	}{
		{"zeros", zeros{}, "codefile: corrupt header section: bad magic"},
		{"version 0", io.MultiReader(strings.NewReader("TNSC"), zeros{}),
			"codefile: corrupt header section: unsupported version 0"},
	} {
		cr := &countingReader{r: c.stream}
		_, err := Read(cr)
		if err == nil || err.Error() != c.want || !IsCorrupt(err) {
			t.Errorf("%s: Read = %v, want %q", c.name, err, c.want)
		}
		if cr.n > preambleLen {
			t.Errorf("%s: Read took %d bytes to refuse the stream", c.name, cr.n)
		}
	}
}

// TestReadBoundsEndlessStream: a valid file followed by an endless stream
// is refused, typed, once the read passes the bound — never more than one
// byte past it. Read's bound is maxFileBytes; the test drives the same
// code at a bound a few KB past the file.
func TestReadBoundsEndlessStream(t *testing.T) {
	if maxFileBytes != 64<<20 {
		t.Errorf("Read's bound is %d bytes, want 64 MiB", maxFileBytes)
	}
	data, _ := referenceSample()
	limit := len(data) + 5000
	cr := &countingReader{r: io.MultiReader(bytes.NewReader(data), zeros{})}
	_, err := read(cr, limit)
	want := fmt.Sprintf("codefile: corrupt header section: stream longer than %d bytes", limit)
	if err == nil || err.Error() != want || !IsCorrupt(err) {
		t.Errorf("read = %v, want %q", err, want)
	}
	if cr.n > limit+1 {
		t.Errorf("read took %d bytes, bound %d", cr.n, limit)
	}
	// At the bound itself the file is still read whole.
	if _, err := read(bytes.NewReader(data), len(data)); err != nil {
		t.Errorf("a file exactly at the bound: %v", err)
	}
}

// TestReadStreamErrorTyped: a read that fails part way is the reference's
// typed truncation at that point, with the stream's error as the cause;
// a failure after the last byte of a whole file loses nothing.
func TestReadStreamErrorTyped(t *testing.T) {
	data, _ := referenceSample()
	reset := errors.New("connection reset")
	for _, n := range []int{0, 3, 5, 20, len(data) / 2, len(data) - 2, len(data)} {
		stream := func() io.Reader {
			return io.MultiReader(bytes.NewReader(data[:n]), iotest.ErrReader(reset))
		}
		_, err := Read(stream())
		_, werr := ReferenceRead(stream())
		if n == len(data) {
			if err != nil || werr != nil {
				t.Errorf("whole file then a failed read: %v (reference %v)", err, werr)
			}
			continue
		}
		if !IsCorrupt(err) || !errors.Is(err, reset) || err.Error() != werr.Error() {
			t.Errorf("failure after %d bytes: %v, reference %v", n, err, werr)
		}
	}
}
