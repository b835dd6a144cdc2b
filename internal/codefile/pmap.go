package codefile

import (
	"encoding/binary"
	"fmt"
)

// PMap is the Program Address Map: a sparse, monotonic mapping from 16-bit
// TNS instruction addresses to 32-bit RISC instruction addresses. Following
// the paper, it is compressed into one byte per TNS instruction word plus one
// base address per 8 TNS words — 12 bits of table per mapped or unmapped TNS
// word. Only register-exact points (usable as dynamic jump targets) and
// memory-exact points (usable by the debugger to mark statement boundaries)
// are mapped.
type PMap struct {
	// base[g] is the RISC word index corresponding to offset 0 of group g
	// (TNS words 8g..8g+7), or -1 if the group has no mapped words.
	base []int32
	// off[a] is the RISC word delta from base[a/8] for TNS word a, or
	// offUnmapped.
	off []uint8
	// regExact[a/64] bit a%64 is set if TNS word a is register-exact (as
	// opposed to memory-exact only).
	regExact []uint64

	// cache of mapped addresses for inverse lookups. It is populated only
	// by Seal (never lazily): a sealed PMap is immutable under Lookup and
	// Inverse, so one AccelSection can back any number of concurrent
	// runners — the fleet's shared-codefile contract.
	cache      []uint16
	cacheValid bool
}

const offUnmapped = 0xFF

// NewPMap creates an empty PMap covering a code segment of n words.
func NewPMap(n int) PMap {
	groups := (n + 7) / 8
	p := PMap{
		base:     make([]int32, groups),
		off:      make([]uint8, n),
		regExact: make([]uint64, (n+63)/64),
	}
	for i := range p.base {
		p.base[i] = -1
	}
	for i := range p.off {
		p.off[i] = offUnmapped
	}
	return p
}

// Len returns the number of TNS words covered.
func (p *PMap) Len() int { return len(p.off) }

// Add records that TNS address tnsAddr maps to RISC word index riscIdx.
// Within one 8-word group, addresses must be added in increasing TNS and
// RISC order (the Accelerator emits code in address order, so this holds by
// construction). Add returns an error — it must never panic, whatever a
// buggy or hostile caller feeds it — when the address is out of range or
// the delta from the group base exceeds the 8-bit budget, which would mean
// a single 8-word group expanded past ~254 RISC instructions, far beyond
// any real translation.
func (p *PMap) Add(tnsAddr uint16, riscIdx int, regExact bool) error {
	if int(tnsAddr) >= len(p.off) {
		return fmt.Errorf("codefile: PMap address %d outside %d code words",
			tnsAddr, len(p.off))
	}
	g := int(tnsAddr) / 8
	if p.base[g] < 0 {
		// Anchor the group base so the first mapped word has offset 0; the
		// group "origin" is base minus nothing. Offsets within the group are
		// deltas from this anchor.
		p.base[g] = int32(riscIdx)
	}
	d := riscIdx - int(p.base[g])
	if d < 0 || d >= offUnmapped {
		return fmt.Errorf("codefile: PMap group offset %d out of range at tns %d",
			d, tnsAddr)
	}
	p.off[tnsAddr] = uint8(d)
	p.cacheValid = false
	if regExact {
		p.regExact[tnsAddr/64] |= 1 << (tnsAddr % 64)
	}
	return nil
}

// Lookup maps a TNS address to its RISC word index. It returns ok=false when
// the address is unmapped; regExact reports whether the point may be entered
// by a dynamic jump (as opposed to being a debugger-only memory-exact point).
// Lookup is bounds-safe even on a structurally damaged PMap (skewed array
// lengths, a mapped word in a group with no base): damage reads as
// "unmapped", never as a panic or a fabricated index.
func (p *PMap) Lookup(tnsAddr uint16) (riscIdx int, regExact, ok bool) {
	a := int(tnsAddr)
	if a >= len(p.off) || p.off[a] == offUnmapped {
		return 0, false, false
	}
	g := a / 8
	if g >= len(p.base) || p.base[g] < 0 {
		return 0, false, false
	}
	idx := int(p.base[g]) + int(p.off[a])
	re := false
	if w := a / 64; w < len(p.regExact) {
		re = p.regExact[w]&(1<<(a%64)) != 0
	}
	return idx, re, true
}

// Inverse maps a RISC word index back to the greatest mapped TNS address
// whose RISC index does not exceed riscIdx — the "CISC view" the debugger
// presents of a running accelerated program. Because the PMap is monotonic,
// this is a binary search, as in the paper. It returns ok=false if riscIdx
// precedes all mapped code.
func (p *PMap) Inverse(riscIdx int) (tnsAddr uint16, ok bool) {
	mapped := p.mappedAddrs()
	lo, hi := 0, len(mapped)
	for lo < hi {
		mid := (lo + hi) / 2
		idx, _, _ := p.Lookup(mapped[mid])
		if idx <= riscIdx {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0, false
	}
	return mapped[lo-1], true
}

// mappedAddrs returns the mapped TNS addresses in order. It never writes:
// on a sealed PMap it returns the precomputed cache, otherwise it computes
// the slice afresh per call. Lazy population here would be a data race
// under the fleet's shared-AccelSection execution model.
func (p *PMap) mappedAddrs() []uint16 {
	if p.cacheValid {
		return p.cache
	}
	return p.computeMapped()
}

func (p *PMap) computeMapped() []uint16 {
	n := 0
	for _, o := range p.off {
		if o != offUnmapped {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]uint16, 0, n)
	for a, o := range p.off {
		if o != offUnmapped {
			out = append(out, uint16(a))
		}
	}
	return out
}

// Seal precomputes the inverse-lookup cache. After Seal, Lookup and Inverse
// perform no writes, so the PMap (and the AccelSection holding it) may be
// shared read-only between any number of concurrent runners. The translator
// seals every section it finalizes and the loader seals every section it
// parses; a later Add un-seals (and is then single-writer territory again).
func (p *PMap) Seal() {
	p.cache, p.cacheValid = p.computeMapped(), true
}

// SizeBits returns the PMap's storage cost in bits: 12 bits per TNS word
// (one byte of offset plus the amortized base array), the figure the paper
// uses for the 0.75 code-size term in Table 4.
func (p *PMap) SizeBits() int { return 12 * len(p.off) }

// Pack serializes the PMap into the flat big-endian layout the EXIT
// millicode walks at run time:
//
//	word 0:              group count G
//	words 1..G:          base array (RISC word index of each group anchor,
//	                     0xFFFFFFFF when the group is empty)
//	bytes 4(G+1)...:     offset array, one byte per TNS word, 0xFF when the
//	                     word is unmapped or not register-exact
//
// Only register-exact points appear in the packed table: the millicode
// lookup serves dynamic jumps, which must not land on memory-exact-only
// points. The host-side PMap keeps both kinds for the debugger.
func (p *PMap) Pack() []byte {
	g := len(p.base)
	out := make([]byte, 4+4*g+len(p.off))
	putU32 := func(off int, v uint32) {
		out[off] = byte(v >> 24)
		out[off+1] = byte(v >> 16)
		out[off+2] = byte(v >> 8)
		out[off+3] = byte(v)
	}
	putU32(0, uint32(g))
	for i, b := range p.base {
		if b < 0 {
			putU32(4+4*i, 0xFFFFFFFF)
		} else {
			// Anchors are stored as absolute RISC byte addresses, the form
			// the EXIT millicode adds offsets to.
			putU32(4+4*i, uint32(b)<<2)
		}
	}
	offBase := 4 + 4*g
	for a := range p.off {
		v := p.off[a]
		if v != offUnmapped {
			if w := a / 64; w >= len(p.regExact) || p.regExact[w]&(1<<(a%64)) == 0 {
				v = offUnmapped
			}
		}
		out[offBase+a] = v
	}
	return out
}

// encodedLen is the length of the PMap's serialization (appendTo).
func (p *PMap) encodedLen() int {
	return 4 + 4*len(p.base) + 4 + len(p.off) + 4 + 8*len(p.regExact)
}

// appendTo appends the PMap's serialization to b: the counted base, offset
// and register-exact arrays, big-endian, each register-exact word as two
// 32-bit halves.
func (p *PMap) appendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(len(p.base)))
	for _, g := range p.base {
		b = binary.BigEndian.AppendUint32(b, uint32(g))
	}
	b = binary.BigEndian.AppendUint32(b, uint32(len(p.off)))
	b = append(b, p.off...)
	b = binary.BigEndian.AppendUint32(b, uint32(len(p.regExact)))
	for _, w := range p.regExact {
		b = binary.BigEndian.AppendUint64(b, w)
	}
	return b
}

// parse reads what appendTo wrote. The register-exact words are read as
// two 32-bit halves each, so a truncation among them reads as it did when
// the halves were read from a stream one at a time.
func (p *PMap) parse(r *parser) {
	p.base = r.i32s()
	if no := r.count(); r.err == nil {
		p.off = r.bytes(no)
	}
	if nr := r.count(); r.err == nil {
		p.regExact = make([]uint64, 0, r.fit(nr, 8))
		for i := 0; i < nr && r.err == nil; i++ {
			hi := r.u32()
			lo := r.u32()
			p.regExact = append(p.regExact, uint64(hi)<<32|uint64(lo))
		}
	}
	// Loaded sections are execution artifacts: seal so concurrent runners
	// sharing this section never race on the inverse cache.
	p.Seal()
}
