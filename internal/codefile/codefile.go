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
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
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
// mutations at individual sections. The image is appended into one buffer
// of exactly its length (encodedLen).
func (f *File) Marshal() ([]byte, []SectionSpan) {
	b := make([]byte, 0, f.encodedLen())
	spans := make([]SectionSpan, 0, NumSections)
	start := 0
	// seal closes the current section: append the CRC-32 of its payload
	// and record the span (payload + checksum).
	seal := func(id SectionID) {
		b = binary.BigEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
		spans = append(spans, SectionSpan{ID: id, Start: start, End: len(b)})
		start = len(b)
	}
	u8 := func(v uint8) { b = append(b, v) }
	u16 := func(v uint16) { b = binary.BigEndian.AppendUint16(b, v) }
	u32 := func(v uint32) { b = binary.BigEndian.AppendUint32(b, v) }
	str := func(s string) {
		u16(uint16(len(s)))
		b = append(b, s...)
	}

	u32(magic)
	u16(version)
	str(f.Name)
	seal(SecHeader)

	u32(uint32(len(f.Code)))
	for _, w := range f.Code {
		u16(w)
	}
	seal(SecCode)

	u32(uint32(len(f.Procs)))
	for i := range f.Procs {
		str(f.Procs[i].Name)
		u16(f.Procs[i].Entry)
		u8(uint8(f.Procs[i].ResultWords))
		u8(f.Procs[i].ArgWords)
	}
	u16(f.MainPEP)
	u16(f.GlobalWords)
	u32(uint32(len(f.Data)))
	for i := range f.Data {
		u16(f.Data[i].Addr)
		u32(uint32(len(f.Data[i].Words)))
		for _, w := range f.Data[i].Words {
			u16(w)
		}
	}
	u32(uint32(len(f.Statements)))
	for i := range f.Statements {
		u16(f.Statements[i].Addr)
		u32(uint32(f.Statements[i].Line))
	}
	u32(uint32(len(f.Symbols)))
	for i := range f.Symbols {
		u32(uint32(f.Symbols[i].Proc))
		str(f.Symbols[i].Name)
		u8(uint8(f.Symbols[i].Kind))
		u16(uint16(f.Symbols[i].Addr))
		u8(f.Symbols[i].Words)
	}
	if f.Accel == nil {
		u8(0)
		seal(SecMeta)
		return b, spans
	}
	u8(1)
	seal(SecMeta)

	a := f.Accel
	u8(uint8(a.Level))
	u8(a.BackendID)
	u32(uint32(len(a.RISC)))
	for _, w := range a.RISC {
		u32(w)
	}
	seal(SecAccelRISC)

	u32(uint32(len(a.Entries)))
	for _, e := range a.Entries {
		u32(uint32(e))
	}
	u32(uint32(len(a.ExpectedRP)))
	b = append(b, a.ExpectedRP...)
	seal(SecEMap)

	b = a.PMap.appendTo(b)
	seal(SecPMap)

	for _, v := range [...]int{a.Stats.TNSInstrs, a.Stats.TableWords,
		a.Stats.RISCInstrs, a.Stats.RPChecks, a.Stats.GuessedProcs,
		a.Stats.PuzzlePoints, a.Stats.WeldedStmts, a.Stats.FilledSlots,
		a.Stats.ElidedFlagOps} {
		b = binary.BigEndian.AppendUint64(b, uint64(v))
	}
	// FallbackWhy, sorted by address so serialization is deterministic.
	addrs := make([]uint16, 0, len(a.FallbackWhy))
	for addr := range a.FallbackWhy {
		addrs = append(addrs, addr)
	}
	slices.Sort(addrs)
	u32(uint32(len(addrs)))
	for _, addr := range addrs {
		u16(addr)
		u8(a.FallbackWhy[addr])
	}
	seal(SecFallback)
	return b, spans
}

// encodedLen is the length of f's serialization, field by field as
// Marshal appends them; every section ends in a 4-byte checksum.
func (f *File) encodedLen() int {
	n := 4 + 2 + 2 + len(f.Name) + 4 // header: magic, version, name
	n += 4 + 2*len(f.Code) + 4
	n += 4 // meta: procedure count
	for i := range f.Procs {
		n += 2 + len(f.Procs[i].Name) + 2 + 1 + 1
	}
	n += 2 + 2 + 4 // main PEP, global words, data count
	for i := range f.Data {
		n += 2 + 4 + 2*len(f.Data[i].Words)
	}
	n += 4 + 6*len(f.Statements) + 4
	for i := range f.Symbols {
		n += 4 + 2 + len(f.Symbols[i].Name) + 1 + 2 + 1
	}
	n += 1 + 4 // acceleration flag
	if a := f.Accel; a != nil {
		n += 1 + 1 + 4 + 4*len(a.RISC) + 4
		n += 4 + 4*len(a.Entries) + 4 + len(a.ExpectedRP) + 4
		n += a.PMap.encodedLen() + 4
		n += 9*8 + 4 + 3*len(a.FallbackWhy) + 4
	}
	return n
}

// WriteTo serializes the codefile.
func (f *File) WriteTo(w io.Writer) (int64, error) {
	data, _ := f.Marshal()
	n, err := w.Write(data)
	return int64(n), err
}

// maxFileBytes bounds what Read takes from a stream. The largest
// codefiles the tools write are a few hundred KB (a full 64K-word code
// segment and its translation), and tnsxlated caps a submission at the
// same 64 MiB.
const maxFileBytes = 64 << 20

// preambleLen is the magic and the version: what decides whether a
// stream holds a codefile at all.
const preambleLen = 4 + 2

// Read reads a codefile from r and parses it (see Parse). It reads the
// magic and version first and refuses a stream that does not begin with
// them before reading on; otherwise it reads r to its end, refusing a
// stream longer than 64 MiB once it has read one byte past that. A
// failed read of r is typed like a truncation at that point, with r's
// error as the cause.
func Read(r io.Reader) (*File, error) { return read(r, maxFileBytes) }

func read(r io.Reader, limit int) (*File, error) {
	size := 4 << 10
	if l, ok := r.(interface{ Len() int }); ok {
		size = min(l.Len(), limit) + 1 // +1: the read that meets EOF needs no growth
	}
	data := make([]byte, preambleLen, max(size, preambleLen))
	n, err := io.ReadFull(r, data)
	data = data[:n]
	switch err {
	case nil:
		p := parser{data: data}
		if err := p.preamble(); err != nil {
			return nil, err
		}
		data, err = readAtMost(r, data, limit+1)
	case io.EOF, io.ErrUnexpectedEOF:
		err = nil // a short stream: Parse reports the truncation
	}
	if len(data) > limit {
		return nil, corruptf(SecHeader, "stream longer than %d bytes", limit)
	}
	f, perr := Parse(data)
	if err != nil {
		var ce *ErrCorrupt
		if errors.As(perr, &ce) && (ce.Err == io.EOF || ce.Err == io.ErrUnexpectedEOF) {
			ce.Err = err
		}
	}
	return f, perr
}

// readAtMost appends r's bytes to buf until r reports EOF or buf holds
// limit bytes.
func readAtMost(r io.Reader, buf []byte, limit int) ([]byte, error) {
	for len(buf) < limit {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):min(cap(buf), limit)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// Parse decodes a serialized codefile in one pass over data, checking
// each section's CRC-32 as the section ends. Every rejection — bad magic,
// unsupported version, checksum mismatch, implausible count, a main PEP
// naming no procedure, truncation, trailing garbage — is a typed
// *ErrCorrupt naming the section the damage was detected in, so a damaged
// artifact can never surface as garbage structures. Every element count
// is checked against the bytes left before anything is allocated for it,
// and the returned File shares no memory with data.
//
// Truncation follows io.ReadFull's rule field by field, as when the
// format was decoded from a stream: io.EOF where no byte of a field is
// left, io.ErrUnexpectedEOF where part of it is. It is attributed to the
// section under parse when the parse stops, which is meta for a
// truncated CISC image and fallback for a truncated acceleration.
func Parse(data []byte) (*File, error) {
	p := parser{data: data}
	if err := p.preamble(); err != nil {
		return nil, err
	}
	f := &File{}
	f.Name = p.str()
	p.seal(SecHeader)

	p.sec = SecCode
	f.Code = p.u16s()
	p.seal(SecCode)

	p.sec = SecMeta
	np := p.count()
	f.Procs = make([]Proc, 0, p.fit(np, 2+2+1+1))
	for i := 0; i < np && p.err == nil; i++ {
		f.Procs = append(f.Procs, Proc{Name: p.str(), Entry: p.u16(),
			ResultWords: int8(p.u8()), ArgWords: p.u8()})
	}
	f.MainPEP = p.u16()
	f.GlobalWords = p.u16()
	nd := p.count()
	f.Data = make([]DataSeg, 0, p.fit(nd, 2+4))
	for i := 0; i < nd && p.err == nil; i++ {
		f.Data = append(f.Data, DataSeg{Addr: p.u16(), Words: p.u16s()})
	}
	ns := p.count()
	f.Statements = make([]Statement, 0, p.fit(ns, 2+4))
	for i := 0; i < ns && p.err == nil; i++ {
		f.Statements = append(f.Statements, Statement{Addr: p.u16(), Line: int32(p.u32())})
	}
	ny := p.count()
	f.Symbols = make([]Symbol, 0, p.fit(ny, 4+2+1+2+1))
	for i := 0; i < ny && p.err == nil; i++ {
		f.Symbols = append(f.Symbols, Symbol{Proc: int32(p.u32()), Name: p.str(),
			Kind: SymKind(p.u8()), Addr: int16(p.u16()), Words: p.u8()})
	}
	hasAccel := p.u8() == 1
	p.seal(SecMeta)
	if p.err == nil && int(f.MainPEP) >= len(f.Procs) {
		p.err = corruptf(SecMeta, "main PEP %d names none of %d procedures",
			f.MainPEP, len(f.Procs))
	}

	if hasAccel && p.err == nil {
		a := &AccelSection{}
		p.sec = SecAccelRISC
		a.Level = AccelLevel(p.u8())
		if !p.v5 {
			a.BackendID = p.u8()
		}
		a.RISC = p.u32s()
		p.seal(SecAccelRISC)

		p.sec = SecEMap
		a.Entries = p.i32s()
		if nrp := p.count(); nrp > 0 {
			a.ExpectedRP = p.bytes(nrp)
		}
		p.seal(SecEMap)

		p.sec = SecPMap
		a.PMap.parse(&p)
		p.seal(SecPMap)

		p.sec = SecFallback
		for _, v := range [...]*int{&a.Stats.TNSInstrs, &a.Stats.TableWords,
			&a.Stats.RISCInstrs, &a.Stats.RPChecks, &a.Stats.GuessedProcs,
			&a.Stats.PuzzlePoints, &a.Stats.WeldedStmts, &a.Stats.FilledSlots,
			&a.Stats.ElidedFlagOps} {
			*v = int(int64(p.u64()))
		}
		if nfw := p.count(); nfw > 0 {
			a.FallbackWhy = make(map[uint16]uint8, p.fit(nfw, 2+1))
			for i := 0; i < nfw && p.err == nil; i++ {
				addr := p.u16()
				a.FallbackWhy[addr] = p.u8()
			}
		}
		p.seal(SecFallback)
		f.Accel = a
	}
	if p.err != nil {
		return nil, p.fail()
	}
	// The format is self-terminating: anything after the last section is
	// not ours. Rejecting it closes the door on a shorter (e.g. version-
	// relabeled) parse "succeeding" inside a longer damaged image.
	if p.pos < len(p.data) {
		return nil, corruptf(p.sec, "trailing garbage after end of file")
	}
	return f, nil
}

// parser is Parse's cursor over the serialized bytes. The first failure
// sticks: every later read returns zero values and changes nothing.
type parser struct {
	data  []byte
	pos   int       // next byte to read
	start int       // first payload byte of the section under parse
	sec   SectionID // section under parse, for error attribution
	v5    bool      // acceleration section has no backend byte
	err   error
}

// preamble reads the magic and the version.
func (p *parser) preamble() error {
	if p.u32() != magic {
		if p.err == nil {
			p.err = corruptf(SecHeader, "bad magic")
		}
		return p.fail()
	}
	switch v := p.u16(); {
	case p.err != nil:
		return p.fail()
	case v == version:
	case v == versionV5:
		p.v5 = true
	default:
		p.err = corruptf(SecHeader, "unsupported version %d", v)
		return p.fail()
	}
	return nil
}

// take returns the next n bytes, or nil once a read has failed: io.EOF
// when no byte is left, io.ErrUnexpectedEOF when fewer than n are.
func (p *parser) take(n int) []byte {
	if p.err != nil {
		return nil
	}
	if left := len(p.data) - p.pos; n > left {
		p.err = io.ErrUnexpectedEOF
		if left == 0 {
			p.err = io.EOF
		}
		return nil
	}
	b := p.data[p.pos : p.pos+n : p.pos+n]
	p.pos += n
	return b
}

// seal ends the section under parse: check the stored CRC-32 that
// follows the payload against the payload's.
func (p *parser) seal(id SectionID) {
	if p.err != nil {
		return
	}
	payload := p.data[p.start:p.pos]
	b := p.take(4)
	if b == nil {
		p.err = &ErrCorrupt{Section: id, Detail: "truncated checksum", Err: p.err}
		return
	}
	stored := binary.BigEndian.Uint32(b)
	if computed := crc32.ChecksumIEEE(payload); stored != computed {
		p.err = corruptf(id, "checksum mismatch (stored %08X, computed %08X)",
			stored, computed)
		return
	}
	p.start = p.pos
}

// fail wraps a pending truncation as a corruption of the section under
// parse, so Parse's error is always a typed *ErrCorrupt.
func (p *parser) fail() error {
	var ce *ErrCorrupt
	if !errors.As(p.err, &ce) {
		p.err = &ErrCorrupt{Section: p.sec, Err: p.err}
	}
	return p.err
}

// maxCount bounds every element count read from the wire. TNS addresses are
// 16-bit, so no legitimate section holds anywhere near this many entries
// (the largest is the RISC array, a few hundred thousand words); a corrupt
// or hostile header must fail here rather than drive a multi-gigabyte
// allocation.
const maxCount = 1 << 20

// count reads an element count.
func (p *parser) count() int {
	n := p.u32()
	if p.err == nil && n > maxCount {
		p.err = corruptf(p.sec, "implausible element count %d", n)
	}
	if p.err != nil {
		return 0
	}
	return int(n)
}

// fit caps a count of elements at least size bytes long each at what the
// bytes left can hold: the capacity to allocate before parsing them one by
// one, so a count past the end of the file costs no more than the file.
func (p *parser) fit(n, size int) int {
	return min(n, (len(p.data)-p.pos)/size)
}

func (p *parser) u8() uint8 {
	if b := p.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (p *parser) u16() uint16 {
	if b := p.take(2); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (p *parser) u32() uint32 {
	if b := p.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (p *parser) u64() uint64 {
	if b := p.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

func (p *parser) str() string {
	return string(p.take(int(p.u16())))
}

// bytes copies the next n bytes.
func (p *parser) bytes(n int) []byte {
	b := p.take(n)
	if b == nil {
		return nil
	}
	return append(make([]byte, 0, n), b...)
}

// u16s reads a counted array of 16-bit words; u32s and i32s, of 32-bit
// words. The whole array is one read.
func (p *parser) u16s() []uint16 {
	n := p.count()
	b := p.take(2 * n)
	if b == nil {
		return nil
	}
	v := make([]uint16, n)
	for i := range v {
		v[i] = binary.BigEndian.Uint16(b[2*i:])
	}
	return v
}

func (p *parser) u32s() []uint32 {
	n := p.count()
	b := p.take(4 * n)
	if b == nil {
		return nil
	}
	v := make([]uint32, n)
	for i := range v {
		v[i] = binary.BigEndian.Uint32(b[4*i:])
	}
	return v
}

func (p *parser) i32s() []int32 {
	n := p.count()
	b := p.take(4 * n)
	if b == nil {
		return nil
	}
	v := make([]int32, n)
	for i := range v {
		v[i] = int32(binary.BigEndian.Uint32(b[4*i:]))
	}
	return v
}
