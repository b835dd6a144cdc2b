package backend

import "fmt"

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
type CodeImage struct {
	pages []*[CodePageWords]uint32 // nil: a page no segment touches
	n     uint32
}

// NewCodeImage builds a code space of n words holding segs. A segment
// reaching past n is a caller bug and panics.
func NewCodeImage(n int, segs ...Segment) *CodeImage {
	c := &CodeImage{
		pages: make([]*[CodePageWords]uint32, (n+CodePageWords-1)>>codePageShift),
		n:     uint32(n),
	}
	for _, s := range segs {
		if end := int(s.Base) + len(s.Words); end > n {
			panic(fmt.Sprintf("backend: segment [%d,%d) outside a %d-word code space", s.Base, end, n))
		}
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

// Decoded is a code image decoded once into a target's instruction form
// T. Each stored page is decoded word by word; every page no segment
// touches shares one page of the decoded zero word, so a gap executes
// exactly as word 0 does. It is immutable: every simulator of the image
// reads it concurrently.
type Decoded[T any] struct {
	pages []*[CodePageWords]T
	n     uint32
}

// DecodeCode decodes the populated words of c with decode.
func DecodeCode[T any](c *CodeImage, decode func(w uint32) T) Decoded[T] {
	d := Decoded[T]{pages: make([]*[CodePageWords]T, len(c.pages)), n: c.n}
	var zero *[CodePageWords]T
	for i, raw := range c.pages {
		if raw == nil {
			if zero == nil {
				zero = new([CodePageWords]T)
				z := decode(0)
				for j := range zero {
					zero[j] = z
				}
			}
			d.pages[i] = zero
			continue
		}
		pg := new([CodePageWords]T)
		for j, w := range raw {
			pg[j] = decode(w)
		}
		d.pages[i] = pg
	}
	return d
}

// Len returns the size of the decoded code space in words.
func (d *Decoded[T]) Len() int { return int(d.n) }

// At returns the decoded instruction at pc, which must be below Len.
func (d *Decoded[T]) At(pc uint32) *T {
	return &d.pages[pc>>codePageShift][pc&codePageMask]
}
