package backend

import (
	"fmt"
	"slices"
)

// The code space is paged for storage: a run populates only the millicode,
// the user translation and the library translation, which sit far apart
// (the library at word 0x80000), so a dense image of the whole span would
// be mostly zeros.
const (
	codePageShift = 8
	CodePageWords = 1 << codePageShift
	codePageMask  = CodePageWords - 1
)

// Segment is one populated run of code words, loaded at word index Base.
type Segment struct {
	Base  uint32
	Words []uint32
}

// CodeImage is the immutable code space of a run: Len words, of which only
// the segments it was built from are stored. Every other word below Len
// reads as 0; PCs at or beyond Len are outside the code space (a simulator
// traps TrapBadInstr there, and a code-window load TrapAddress). A
// CodeImage is shared read-only by every program decoded from it.
//
// It also numbers the count slots a simulator with CPU.Counts attached
// counts each executed word in (Slot). Every stored page has CodePageWords
// slots of its own, and the gap pages that follow one segment, up to the
// next segment's base, share one page of slots: a gap word counts in the
// slot of the same offset in that shared page. So the slots grow with the
// stored words and the segment count, never with the length, and a gap
// word's slot stands only for gap words that follow the same segment.
type CodeImage struct {
	pages     []*[CodePageWords]uint32 // nil: a page no segment touches
	slot      []uint32                 // per page: the slot of its first word
	slotPages []uint32                 // per page of slots: the first code page counted there
	n         uint32
}

// NewCodeImage builds a code space of n words holding segs. A segment
// reaching past n is a caller bug and panics. An empty segment stores
// nothing but still ends the gap of the segment before it.
func NewCodeImage(n int, segs ...Segment) *CodeImage {
	c := &CodeImage{
		pages: make([]*[CodePageWords]uint32, (n+CodePageWords-1)>>codePageShift),
		n:     uint32(n),
	}
	bases := make([]uint32, 0, len(segs))
	for _, s := range segs {
		if end := int(s.Base) + len(s.Words); end > n {
			panic(fmt.Sprintf("backend: segment [%d,%d) outside a %d-word code space", s.Base, end, n))
		}
		bases = append(bases, s.Base)
		for i, w := range s.Words {
			at := s.Base + uint32(i)
			pg := c.pages[at>>codePageShift]
			if pg == nil {
				pg = new([CodePageWords]uint32)
				c.pages[at>>codePageShift] = pg
			}
			pg[at&codePageMask] = w
		}
	}
	slices.Sort(bases)
	c.slot = make([]uint32, len(c.pages))
	gap := -1 // the slot page the current gap shares, once it has one
	for i, pg := range c.pages {
		for len(bases) > 0 && bases[0] <= uint32(i)<<codePageShift {
			bases, gap = bases[1:], -1
		}
		if pg == nil && gap >= 0 {
			c.slot[i] = uint32(gap) << codePageShift
			continue
		}
		if pg == nil {
			gap = len(c.slotPages)
		}
		c.slot[i] = uint32(len(c.slotPages)) << codePageShift
		c.slotPages = append(c.slotPages, uint32(i))
	}
	return c
}

// FlatCode is a code space holding exactly words, from word 0.
func FlatCode(words []uint32) *CodeImage {
	return NewCodeImage(len(words), Segment{Words: words})
}

// Len returns the size of the code space in words.
func (c *CodeImage) Len() int { return int(c.n) }

// Word returns code word pc: 0 in a gap between segments and at or beyond
// Len.
func (c *CodeImage) Word(pc uint32) uint32 {
	if pc >= c.n {
		return 0
	}
	if pg := c.pages[pc>>codePageShift]; pg != nil {
		return pg[pc&codePageMask]
	}
	return 0
}

// Slots returns the number of count slots: the length a CPU.Counts slice
// over a program of this image needs.
func (c *CodeImage) Slots() int { return len(c.slotPages) << codePageShift }

// Slot returns the count slot of code word pc, which must be below Len.
func (c *CodeImage) Slot(pc uint32) uint32 {
	return c.slot[pc>>codePageShift] + pc&codePageMask
}

// SlotPages returns, for each page of CodePageWords count slots in order,
// the code page whose words count there: slot k*CodePageWords+j counts
// word SlotPages()[k]*CodePageWords+j, or, for a page of slots that gap
// pages share, the word at offset j of any of them. The slice is the
// image's own; callers must not modify it.
func (c *CodeImage) SlotPages() []uint32 { return c.slotPages }

// Decoded is a code image decoded once into a target's instruction form
// T, each word with its count slot. Each stored page is decoded word by
// word; every page no segment touches shares one page of the decoded zero
// word, so a gap executes exactly as word 0 does. It is immutable: every
// simulator of the image reads it concurrently.
type Decoded[T any] struct {
	pages []decodedPage[T]
	n     uint32
}

// decodedPage is one page of decoded words and the count slot of its
// first word; the page entry carries the slot so a step finds both with
// one index.
type decodedPage[T any] struct {
	ins  *[CodePageWords]T
	slot uint32
}

// DecodeCode decodes the populated words of c with decode.
func DecodeCode[T any](c *CodeImage, decode func(w uint32) T) Decoded[T] {
	d := Decoded[T]{pages: make([]decodedPage[T], len(c.pages)), n: c.n}
	var zero *[CodePageWords]T
	for i, raw := range c.pages {
		d.pages[i].slot = c.slot[i]
		if raw == nil {
			if zero == nil {
				zero = new([CodePageWords]T)
				z := decode(0)
				for j := range zero {
					zero[j] = z
				}
			}
			d.pages[i].ins = zero
			continue
		}
		pg := new([CodePageWords]T)
		for j, w := range raw {
			pg[j] = decode(w)
		}
		d.pages[i].ins = pg
	}
	return d
}

// Len returns the size of the decoded code space in words.
func (d *Decoded[T]) Len() int { return int(d.n) }

// At returns the decoded instruction at pc, which must be below Len, and
// its count slot (CodeImage.Slot).
func (d *Decoded[T]) At(pc uint32) (*T, uint32) {
	pg := &d.pages[pc>>codePageShift]
	return &pg.ins[pc&codePageMask], pg.slot + pc&codePageMask
}
