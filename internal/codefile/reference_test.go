package codefile

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"reflect"
	"sort"
)

// The reference codec: the streaming decoder and the writer the format
// was defined with, each field through the reflective binary.Read or
// binary.Write and the payload teed into a running CRC-32. Parse and
// Marshal must agree with it on every input (CompareWithReference), the
// way RISCStep is the reference the count slots are held to. It is test
// code only: nothing outside the tests decodes or encodes through it.

// ReferenceMarshal is the reference writer.
func ReferenceMarshal(f *File) ([]byte, []SectionSpan) {
	var buf bytes.Buffer
	p := func(v any) { binary.Write(&buf, binary.BigEndian, v) }
	var spans []SectionSpan
	start := 0
	seal := func(id SectionID) {
		p(crc32.ChecksumIEEE(buf.Bytes()[start:]))
		spans = append(spans, SectionSpan{ID: id, Start: start, End: buf.Len()})
		start = buf.Len()
	}

	p(uint32(magic))
	p(uint16(version))
	refWriteString(&buf, f.Name)
	seal(SecHeader)

	p(uint32(len(f.Code)))
	p(f.Code)
	seal(SecCode)

	p(uint32(len(f.Procs)))
	for i := range f.Procs {
		refWriteString(&buf, f.Procs[i].Name)
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
		refWriteString(&buf, f.Symbols[i].Name)
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

	refPMapWrite(&a.PMap, &buf)
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

// ReferenceRead is the reference decoder.
func ReferenceRead(r io.Reader) (*File, error) {
	br := newRefReader(r)
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
		refPMapRead(&a.PMap, br)
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
	var trailing [1]byte
	if _, err := io.ReadFull(br.raw, trailing[:]); err == nil {
		return nil, corruptf(br.sec, "trailing garbage after end of file")
	}
	return f, nil
}

func refWriteString(buf *bytes.Buffer, s string) {
	binary.Write(buf, binary.BigEndian, uint16(len(s)))
	buf.WriteString(s)
}

func refPMapWrite(p *PMap, buf *bytes.Buffer) {
	w32 := func(v uint32) {
		buf.Write([]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
	}
	w32(uint32(len(p.base)))
	for _, b := range p.base {
		w32(uint32(b))
	}
	w32(uint32(len(p.off)))
	buf.Write(p.off)
	w32(uint32(len(p.regExact)))
	for _, b := range p.regExact {
		w32(uint32(b >> 32))
		w32(uint32(b))
	}
}

func refPMapRead(p *PMap, br *refReader) {
	p.base = br.i32s(br.u32())
	no := br.count(br.u32())
	if br.err == nil {
		p.off = make([]uint8, no)
		br.read(p.off)
	}
	nr := br.count(br.u32())
	if br.err == nil {
		p.regExact = make([]uint64, nr)
		for i := range p.regExact {
			hi := br.u32()
			lo := br.u32()
			p.regExact[i] = uint64(hi)<<32 | uint64(lo)
		}
	}
	p.Seal()
}

type refReader struct {
	raw          io.Reader   // the undecorated source (checksum words read here)
	r            io.Reader   // raw teed into hash: every payload byte is summed
	hash         hash.Hash32 // running CRC-32 of the current section's payload
	noBackendTag bool        // v5: acceleration section has no backend byte
	sec          SectionID   // section under parse, for error attribution
	err          error
}

func newRefReader(r io.Reader) *refReader {
	h := crc32.NewIEEE()
	return &refReader{raw: r, r: io.TeeReader(r, h), hash: h}
}

func (b *refReader) read(v any) {
	if b.err == nil {
		b.err = binary.Read(b.r, binary.BigEndian, v)
	}
}

func (b *refReader) seal(id SectionID) {
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

func (b *refReader) fail() error {
	var ce *ErrCorrupt
	if !errors.As(b.err, &ce) {
		b.err = &ErrCorrupt{Section: b.sec, Err: b.err}
	}
	return b.err
}

func (b *refReader) count(n uint32) int {
	if b.err == nil && n > maxCount {
		b.err = corruptf(b.sec, "implausible element count %d", n)
	}
	if b.err != nil {
		return 0
	}
	return int(n)
}

func (b *refReader) u8() uint8   { var v uint8; b.read(&v); return v }
func (b *refReader) u16() uint16 { var v uint16; b.read(&v); return v }
func (b *refReader) u32() uint32 { var v uint32; b.read(&v); return v }
func (b *refReader) i64() int64  { var v int64; b.read(&v); return v }

func (b *refReader) str() string {
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

func (b *refReader) u16s(n uint32) []uint16 {
	nn := b.count(n)
	if b.err != nil {
		return nil
	}
	v := make([]uint16, nn)
	b.read(v)
	return v
}

func (b *refReader) u32s(n uint32) []uint32 {
	nn := b.count(n)
	if b.err != nil {
		return nil
	}
	v := make([]uint32, nn)
	b.read(v)
	return v
}

func (b *refReader) i32s(n uint32) []int32 {
	nn := b.count(n)
	if b.err != nil {
		return nil
	}
	v := make([]int32, nn)
	b.read(v)
	return v
}

// CompareWithReference decodes data with Parse, with Read over a stream
// and with ReferenceRead, and reports the first way they disagree: an
// accepted file must be deeply equal across the three and re-marshal to
// the reference writer's bytes and spans; a rejection must be the same
// typed *ErrCorrupt, section and text, from all three.
func CompareWithReference(data []byte) error {
	want, werr := ReferenceRead(bytes.NewReader(data))
	for _, dec := range []struct {
		name  string
		parse func() (*File, error)
	}{
		{"Parse", func() (*File, error) { return Parse(data) }},
		{"Read", func() (*File, error) { return Read(bytes.NewReader(data)) }},
	} {
		got, err := dec.parse()
		if werr != nil {
			var gc, wc *ErrCorrupt
			if !errors.As(err, &gc) || !errors.As(werr, &wc) {
				return fmt.Errorf("%s: error %v, reference %v", dec.name, err, werr)
			}
			if gc.Section != wc.Section || err.Error() != werr.Error() {
				return fmt.Errorf("%s: %s section %q, reference %s section %q",
					dec.name, gc.Section, err, wc.Section, werr)
			}
			continue
		}
		if err != nil {
			return fmt.Errorf("%s rejects what the reference accepts: %v", dec.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%s: decoded file differs from the reference's", dec.name)
		}
	}
	if werr != nil {
		return nil
	}
	return CompareMarshal(want)
}

// CompareMarshal reports whether Marshal and the reference writer give f
// different bytes or spans, or Marshal's output is not the length its
// buffer was sized to.
func CompareMarshal(f *File) error {
	got, gotSpans := f.Marshal()
	want, wantSpans := ReferenceMarshal(f)
	switch {
	case !bytes.Equal(got, want):
		return fmt.Errorf("Marshal gives %d bytes, reference %d, not equal", len(got), len(want))
	case !reflect.DeepEqual(gotSpans, wantSpans):
		return fmt.Errorf("Marshal spans %v, reference %v", gotSpans, wantSpans)
	case len(got) != f.encodedLen():
		return fmt.Errorf("Marshal wrote %d bytes, sized its buffer for %d", len(got), f.encodedLen())
	}
	return nil
}
