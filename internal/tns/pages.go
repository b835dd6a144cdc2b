package tns

import "math/bits"

// PageWords is the granularity at which writes to the data space are
// tracked: 128 words, 256 bytes of a byte-addressed mirror of the space.
const PageWords = 128

// Pages is the number of pages in the data space.
const Pages = DataWords / PageWords

// PageSet records which pages of the data space have been written. The
// mixed-mode runtime keeps one on each side of its interpreter/simulator
// memory mirror and copies only the pages in them at a mode switch.
type PageSet [Pages / 64]uint64

// MarkWord adds the page holding data word a.
func (p *PageSet) MarkWord(a uint16) { p[a>>13] |= 1 << (a >> 7 & 63) }

// MarkByte adds the page holding byte a of a big-endian byte mirror of the
// data space (word w at bytes 2w and 2w+1) and reports true. Bytes beyond
// the data space are not tracked: it reports false.
func (p *PageSet) MarkByte(a uint32) bool {
	i := a >> 14
	if i >= uint32(len(p)) {
		return false
	}
	p[i] |= 1 << (a >> 8 & 63)
	return true
}

// MarkWords adds every page holding a word of [a, a+n).
func (p *PageSet) MarkWords(a, n int) {
	for w, end := a, min(a+n, DataWords); w < end; w += PageWords - w%PageWords {
		p.MarkWord(uint16(w))
	}
}

// MarkAll adds every page.
func (p *PageSet) MarkAll() {
	for i := range p {
		p[i] = ^uint64(0)
	}
}

// Union adds every page of q.
func (p *PageSet) Union(q *PageSet) {
	for i, w := range q {
		p[i] |= w
	}
}

// Has reports whether page pg is in the set.
func (p *PageSet) Has(pg int) bool { return p[pg>>6]&(1<<(pg&63)) != 0 }

// Len returns the number of pages in the set.
func (p *PageSet) Len() int {
	n := 0
	for _, w := range p {
		n += bits.OnesCount64(w)
	}
	return n
}

// ForEach calls f with each page in the set, in ascending order.
func (p *PageSet) ForEach(f func(pg int)) {
	for i, w := range p {
		for w != 0 {
			f(i<<6 | bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}
