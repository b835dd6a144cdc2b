// Package codefile defines the TNS object-file format: the unit the
// Accelerator reads and augments. A codefile holds a TNS code segment, its
// PEP (Procedure Entry Point) table, a data-initialization image, and
// optional debugger information (statement boundaries and symbols). After
// acceleration it additionally carries the generated RISC code, the PMap
// (TNS-address to RISC-address map), per-procedure RISC entry points, and
// the options the Accelerator was run with — while retaining the complete
// original CISC image, exactly as the paper requires for interpreter
// fallback and for distributing one codefile to both TNS and TNS/R machines.
package codefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"sort"
	"strings"
)

// Proc describes one procedure in the PEP table.
type Proc struct {
	Name  string
	Entry uint16 // code-segment word offset of the entry point
	// ResultWords is the number of 16-bit words the procedure leaves on the
	// register stack at EXIT, or -1 if the compiler did not record a summary
	// (the Accelerator must then analyze or guess, per the paper).
	ResultWords int8
	// ArgWords is the number of argument words cut by the procedure's EXITs.
	ArgWords uint8
}

// Statement marks a statement boundary for the debugger: the paper's
// "explicitly-labelled statements", which are also the potential targets of
// unanalyzable jumps.
type Statement struct {
	Addr uint16 // code word offset of the statement's first instruction
	Line int32  // source line number
}

// SymKind classifies debugger symbols.
type SymKind uint8

const (
	SymGlobal SymKind = iota // Addr is a G-relative word offset
	SymLocal                 // Addr is an L-relative word offset (signed)
	SymParam                 // Addr is an L-relative word offset (negative)
)

// Symbol is one debugger symbol.
type Symbol struct {
	Proc  int32 // owning procedure index, or -1 for globals
	Name  string
	Kind  SymKind
	Addr  int16 // word offset per Kind
	Words uint8 // size in words (1 for INT, 2 for INT(32), n for arrays)
}

// DataSeg is a run of initialized global data words.
type DataSeg struct {
	Addr  uint16
	Words []uint16
}

// AccelLevel is the Accelerator option level recorded in an accelerated
// codefile.
type AccelLevel uint8

const (
	LevelNone      AccelLevel = iota // not accelerated
	LevelStmtDebug                   // every statement boundary register-exact
	LevelDefault
	LevelFast // omit overflow traps, address truncation, byte-store aliasing
)

func (l AccelLevel) String() string {
	switch l {
	case LevelStmtDebug:
		return "StmtDebug"
	case LevelDefault:
		return "Default"
	case LevelFast:
		return "Fast"
	}
	return "None"
}

// ParseLevel reads a translation level as the commands spell it on their
// command lines, ignoring case: "stmtdebug" ("stmt-debug",
// "statementdebug", "debug"), "default" (or empty) and "fast".
func ParseLevel(s string) (AccelLevel, error) {
	switch strings.ToLower(s) {
	case "stmtdebug", "stmt-debug", "statementdebug", "debug":
		return LevelStmtDebug, nil
	case "default", "":
		return LevelDefault, nil
	case "fast":
		return LevelFast, nil
	}
	return 0, fmt.Errorf("unknown level %q (want stmtdebug, default or fast)", s)
}

// AccelSection is the augmentation appended by the Accelerator.
type AccelSection struct {
	Level AccelLevel
	// BackendID names the RISC target the section was encoded for (the
	// backend registry's identity byte; 0 is the MIPS/R3000 default).
	// Runners refuse to drive a section with the wrong simulator.
	BackendID uint8
	// RISC holds the generated RISC instruction words.
	RISC []uint32
	// Entries maps each PEP index to the RISC word index of the procedure's
	// translated entry point, or -1 if the procedure was not translated.
	Entries []int32
	// PMap maps TNS code addresses to RISC word indexes.
	PMap PMap
	// ExpectedRP gives, for each register-exact TNS address, the absolute
	// RP the translated code assumes there (0xFF elsewhere). Re-entry from
	// interpreter mode is refused when the dynamic RP differs — a wrong
	// result-size guess upstream must not leak into translated code.
	ExpectedRP []uint8
	// FallbackWhy records, for each TNS address the translator emitted an
	// interpreter fallback for, the static reason (obs.EscapeReason codes:
	// puzzle joins, computed-jump regions, untranslated callees, ...). The
	// runtime reports the reason when the fallback fires.
	FallbackWhy map[uint16]uint8
	// Stats carries translator counters used by the size experiments.
	Stats AccelStats
}

// AccelStats are measurements the Accelerator records at translation time.
type AccelStats struct {
	TNSInstrs     int // translated TNS instructions (code words minus tables)
	TableWords    int // inline CASE-table and data words discovered
	RISCInstrs    int // RISC instructions emitted inline
	RPChecks      int // run-time RP confirmation checks emitted
	GuessedProcs  int // procedures whose result size was guessed
	PuzzlePoints  int // sites that fall into interpreter mode if reached
	WeldedStmts   int // statement pairs welded by delay-slot scheduling
	FilledSlots   int // branch delay slots usefully filled
	ElidedFlagOps int // flag computations elided as dead
}

// File is a TNS codefile.
type File struct {
	Name        string
	Code        []uint16
	Procs       []Proc
	MainPEP     uint16
	GlobalWords uint16 // globals occupy words [0, GlobalWords); the memory
	// stack is initialized immediately above them
	Data       []DataSeg
	Statements []Statement
	Symbols    []Symbol
	Accel      *AccelSection // nil until accelerated
}

// Pristine returns a shallow copy of f without its acceleration section:
// the CISC image, ready to be accelerated or run interpreted. The copy
// shares Code, Procs, Data, Statements and Symbols with f, which is safe
// because nothing writes them once a codefile is assembled or read;
// core.Accelerate and tcache.Accelerate set only Accel. A nil f gives nil.
func (f *File) Pristine() *File {
	if f == nil {
		return nil
	}
	c := *f
	c.Accel = nil
	return &c
}

// Summaries returns the result-size summaries of f's procedures by PEP
// index (ResultWords; -1 where none was recorded): the paper's "standard
// library descriptions" that calls into a system library are translated
// with. A nil f, a program without a library, gives nil.
func (f *File) Summaries() map[uint16]int8 {
	if f == nil {
		return nil
	}
	s := make(map[uint16]int8, len(f.Procs))
	for i, p := range f.Procs {
		s[uint16(i)] = p.ResultWords
	}
	return s
}

// ProcByName returns the PEP index of the named procedure, or -1.
func (f *File) ProcByName(name string) int {
	for i := range f.Procs {
		if f.Procs[i].Name == name {
			return i
		}
	}
	return -1
}

// ProcOf returns, for each code word, the PEP index of the procedure whose
// body holds it, or -1 for a word below every entry. A procedure's body
// runs from its entry up to the next higher entry (Owners), so where two
// PEP rows share an entry the later row owns the body. A nil f gives nil.
func (f *File) ProcOf() []int32 {
	if f == nil {
		return nil
	}
	starts := make([]int, len(f.Procs))
	for i := range f.Procs {
		starts[i] = int(f.Procs[i].Entry)
	}
	return Owners(len(f.Code), starts)
}

// Owners splits the words [0, n) among owners by their start words: word w
// belongs to the owner with the highest start at or below w, and where
// several owners start at one word the highest index wins. Words below
// every start get -1; a start that is negative, or at or past n, owns
// nothing. The cost is O(n + len(starts)).
func Owners(n int, starts []int) []int32 {
	owner := make([]int32, n)
	for w := range owner {
		owner[w] = -1
	}
	for i, s := range starts {
		if s >= 0 && s < n {
			owner[s] = int32(i)
		}
	}
	cur := int32(-1)
	for w, o := range owner {
		if o >= 0 {
			cur = o
		}
		owner[w] = cur
	}
	return owner
}

// StatementAt returns the statement starting exactly at addr, or nil.
func (f *File) StatementAt(addr uint16) *Statement {
	for i := range f.Statements {
		if f.Statements[i].Addr == addr {
			return &f.Statements[i]
		}
	}
	return nil
}

const (
	magic = 0x544E5343 // "TNSC"
	// version 6 added the acceleration section's backend tag (v5 added
	// per-section CRC-32 checksums). v5 files still load with BackendID 0
	// — every pre-tag section is MIPS — so a fleet can upgrade tools
	// before re-accelerating its codefiles. Older versions carry no
	// checksums and are refused like any other unsupported version.
	version   = 6
	versionV5 = 5
)

// FormatVersion is the current serialization version. Cache keys include
// it so a format bump invalidates every cached artifact instead of serving
// bytes a newer reader would reject.
const FormatVersion = version

// Marshal serializes the codefile (always at the current version) and
// returns the byte image together with its section layout. WriteTo is the
// io.WriterTo convenience over it; the chaos harness uses the spans to aim
// mutations at individual sections.
func (f *File) Marshal() ([]byte, []SectionSpan) {
	var buf bytes.Buffer
	p := func(v any) { binary.Write(&buf, binary.BigEndian, v) }
	var spans []SectionSpan
	start := 0
	// seal closes the current section: append the CRC-32 of its payload
	// and record the span (payload + checksum).
	seal := func(id SectionID) {
		p(crc32.ChecksumIEEE(buf.Bytes()[start:]))
		spans = append(spans, SectionSpan{ID: id, Start: start, End: buf.Len()})
		start = buf.Len()
	}

	p(uint32(magic))
	p(uint16(version))
	writeString(&buf, f.Name)
	seal(SecHeader)

	p(uint32(len(f.Code)))
	p(f.Code)
	seal(SecCode)

	p(uint32(len(f.Procs)))
	for i := range f.Procs {
		writeString(&buf, f.Procs[i].Name)
		p(f.Procs[i].Entry)
		p(f.Procs[i].ResultWords)
		p(f.Procs[i].ArgWords)
	}
	p(f.MainPEP)
	p(f.GlobalWords)
	p(uint32(len(f.Data)))
	for i := range f.Data {
		p(f.Data[i].Addr)
		p(uint32(len(f.Data[i].Words)))
		p(f.Data[i].Words)
	}
	p(uint32(len(f.Statements)))
	for i := range f.Statements {
		p(f.Statements[i].Addr)
		p(f.Statements[i].Line)
	}
	p(uint32(len(f.Symbols)))
	for i := range f.Symbols {
		p(f.Symbols[i].Proc)
		writeString(&buf, f.Symbols[i].Name)
		p(uint8(f.Symbols[i].Kind))
		p(f.Symbols[i].Addr)
		p(f.Symbols[i].Words)
	}
	if f.Accel == nil {
		p(uint8(0))
		seal(SecMeta)
		return buf.Bytes(), spans
	}
	p(uint8(1))
	seal(SecMeta)

	a := f.Accel
	p(uint8(a.Level))
	p(a.BackendID)
	p(uint32(len(a.RISC)))
	p(a.RISC)
	seal(SecAccelRISC)

	p(uint32(len(a.Entries)))
	p(a.Entries)
	p(uint32(len(a.ExpectedRP)))
	p(a.ExpectedRP)
	seal(SecEMap)

	a.PMap.write(&buf)
	seal(SecPMap)

	p(int64(a.Stats.TNSInstrs))
	p(int64(a.Stats.TableWords))
	p(int64(a.Stats.RISCInstrs))
	p(int64(a.Stats.RPChecks))
	p(int64(a.Stats.GuessedProcs))
	p(int64(a.Stats.PuzzlePoints))
	p(int64(a.Stats.WeldedStmts))
	p(int64(a.Stats.FilledSlots))
	p(int64(a.Stats.ElidedFlagOps))
	// FallbackWhy, sorted by address so serialization is deterministic.
	addrs := make([]uint16, 0, len(a.FallbackWhy))
	for addr := range a.FallbackWhy {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	p(uint32(len(addrs)))
	for _, addr := range addrs {
		p(addr)
		p(a.FallbackWhy[addr])
	}
	seal(SecFallback)
	return buf.Bytes(), spans
}

// WriteTo serializes the codefile.
func (f *File) WriteTo(w io.Writer) (int64, error) {
	data, _ := f.Marshal()
	n, err := w.Write(data)
	return int64(n), err
}

// Read deserializes a codefile, verifying the per-section checksums as it
// goes; every rejection — bad magic, unsupported version,
// checksum mismatch, implausible count, a main PEP naming no procedure,
// truncation, trailing garbage — is a typed *ErrCorrupt naming the section
// the damage was detected in, so a damaged artifact can never surface as
// garbage structures.
func Read(r io.Reader) (*File, error) {
	br := newReader(r)
	if br.u32() != magic {
		if br.err == nil {
			br.err = corruptf(SecHeader, "bad magic")
		}
		return nil, br.fail()
	}
	f := &File{}
	switch v := br.u16(); {
	case br.err != nil:
		return nil, br.fail()
	case v == version:
	case v == versionV5:
		br.noBackendTag = true
	default:
		br.err = corruptf(SecHeader, "unsupported version %d", v)
		return nil, br.fail()
	}
	f.Name = br.str()
	br.seal(SecHeader)

	br.sec = SecCode
	f.Code = br.u16s(br.u32())
	br.seal(SecCode)

	br.sec = SecMeta
	np := br.count(br.u32())
	f.Procs = make([]Proc, np)
	for i := range f.Procs {
		f.Procs[i].Name = br.str()
		f.Procs[i].Entry = br.u16()
		f.Procs[i].ResultWords = int8(br.u8())
		f.Procs[i].ArgWords = br.u8()
	}
	f.MainPEP = br.u16()
	f.GlobalWords = br.u16()
	nd := br.count(br.u32())
	f.Data = make([]DataSeg, nd)
	for i := range f.Data {
		f.Data[i].Addr = br.u16()
		f.Data[i].Words = br.u16s(br.u32())
	}
	ns := br.count(br.u32())
	f.Statements = make([]Statement, ns)
	for i := range f.Statements {
		f.Statements[i].Addr = br.u16()
		f.Statements[i].Line = int32(br.u32())
	}
	ny := br.count(br.u32())
	f.Symbols = make([]Symbol, ny)
	for i := range f.Symbols {
		f.Symbols[i].Proc = int32(br.u32())
		f.Symbols[i].Name = br.str()
		f.Symbols[i].Kind = SymKind(br.u8())
		f.Symbols[i].Addr = int16(br.u16())
		f.Symbols[i].Words = br.u8()
	}
	hasAccel := br.u8() == 1
	br.seal(SecMeta)
	if br.err == nil && int(f.MainPEP) >= len(f.Procs) {
		br.err = corruptf(SecMeta, "main PEP %d names none of %d procedures",
			f.MainPEP, len(f.Procs))
	}

	if hasAccel && br.err == nil {
		a := &AccelSection{}
		br.sec = SecAccelRISC
		a.Level = AccelLevel(br.u8())
		if !br.noBackendTag {
			a.BackendID = br.u8()
		}
		a.RISC = br.u32s(br.u32())
		br.seal(SecAccelRISC)

		br.sec = SecEMap
		a.Entries = br.i32s(br.u32())
		nrp := br.count(br.u32())
		if br.err == nil && nrp > 0 {
			a.ExpectedRP = make([]uint8, nrp)
			br.read(a.ExpectedRP)
		}
		br.seal(SecEMap)

		br.sec = SecPMap
		a.PMap.read(br)
		br.seal(SecPMap)

		br.sec = SecFallback
		a.Stats.TNSInstrs = int(br.i64())
		a.Stats.TableWords = int(br.i64())
		a.Stats.RISCInstrs = int(br.i64())
		a.Stats.RPChecks = int(br.i64())
		a.Stats.GuessedProcs = int(br.i64())
		a.Stats.PuzzlePoints = int(br.i64())
		a.Stats.WeldedStmts = int(br.i64())
		a.Stats.FilledSlots = int(br.i64())
		a.Stats.ElidedFlagOps = int(br.i64())
		nfw := br.count(br.u32())
		if br.err == nil && nfw > 0 {
			a.FallbackWhy = make(map[uint16]uint8, nfw)
			for i := 0; i < nfw && br.err == nil; i++ {
				addr := br.u16()
				a.FallbackWhy[addr] = br.u8()
			}
		}
		br.seal(SecFallback)
		f.Accel = a
	}
	if br.err != nil {
		return nil, br.fail()
	}
	// The format is self-terminating: anything after the last section is
	// not ours. Rejecting it closes the door on a shorter (e.g. version-
	// relabeled) parse "succeeding" inside a longer damaged image.
	var trailing [1]byte
	if _, err := io.ReadFull(br.raw, trailing[:]); err == nil {
		return nil, corruptf(br.sec, "trailing garbage after end of file")
	}
	return f, nil
}

func writeString(buf *bytes.Buffer, s string) {
	binary.Write(buf, binary.BigEndian, uint16(len(s)))
	buf.WriteString(s)
}

type reader struct {
	raw          io.Reader   // the undecorated source (checksum words read here)
	r            io.Reader   // raw teed into hash: every payload byte is summed
	hash         hash.Hash32 // running CRC-32 of the current section's payload
	noBackendTag bool        // v5: acceleration section has no backend byte
	sec          SectionID   // section under parse, for error attribution
	err          error
}

func newReader(r io.Reader) *reader {
	h := crc32.NewIEEE()
	return &reader{raw: r, r: io.TeeReader(r, h), hash: h}
}

func (b *reader) read(v any) {
	if b.err == nil {
		b.err = binary.Read(b.r, binary.BigEndian, v)
	}
}

// seal ends the section under parse: read the stored CRC-32 (from the raw
// stream — checksums do not checksum themselves) and compare it to the
// running sum of the payload bytes.
func (b *reader) seal(id SectionID) {
	if b.err != nil {
		return
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(b.raw, crcBuf[:]); err != nil {
		b.err = &ErrCorrupt{Section: id, Detail: "truncated checksum", Err: err}
		return
	}
	stored := binary.BigEndian.Uint32(crcBuf[:])
	if computed := b.hash.Sum32(); stored != computed {
		b.err = corruptf(id, "checksum mismatch (stored %08X, computed %08X)",
			stored, computed)
		return
	}
	b.hash.Reset()
}

// fail wraps any pending untyped error (truncation, io failure) as a
// corruption of the section being parsed, so Read's error is always a
// typed *ErrCorrupt.
func (b *reader) fail() error {
	var ce *ErrCorrupt
	if !errors.As(b.err, &ce) {
		b.err = &ErrCorrupt{Section: b.sec, Err: b.err}
	}
	return b.err
}

// maxCount bounds every element count read from the wire. TNS addresses are
// 16-bit, so no legitimate section holds anywhere near this many entries
// (the largest is the RISC array, a few hundred thousand words); a corrupt
// or hostile header must fail here rather than drive a multi-gigabyte
// allocation.
const maxCount = 1 << 20

func (b *reader) count(n uint32) int {
	if b.err == nil && n > maxCount {
		b.err = corruptf(b.sec, "implausible element count %d", n)
	}
	if b.err != nil {
		return 0
	}
	return int(n)
}

func (b *reader) u8() uint8   { var v uint8; b.read(&v); return v }
func (b *reader) u16() uint16 { var v uint16; b.read(&v); return v }
func (b *reader) u32() uint32 { var v uint32; b.read(&v); return v }
func (b *reader) i64() int64  { var v int64; b.read(&v); return v }

func (b *reader) str() string {
	n := b.u16()
	if b.err != nil {
		return ""
	}
	s := make([]byte, n)
	if _, err := io.ReadFull(b.r, s); err != nil {
		b.err = err
		return ""
	}
	return string(s)
}

func (b *reader) u16s(n uint32) []uint16 {
	nn := b.count(n)
	if b.err != nil {
		return nil
	}
	v := make([]uint16, nn)
	b.read(v)
	return v
}

func (b *reader) u32s(n uint32) []uint32 {
	nn := b.count(n)
	if b.err != nil {
		return nil
	}
	v := make([]uint32, nn)
	b.read(v)
	return v
}

func (b *reader) i32s(n uint32) []int32 {
	nn := b.count(n)
	if b.err != nil {
		return nil
	}
	v := make([]int32, nn)
	b.read(v)
	return v
}
