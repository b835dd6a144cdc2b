package core

import (
	"fmt"

	"tnsr/internal/risc"
)

// The translator's abstract state: where each emulated TNS register
// currently lives (its dedicated RISC register, a temporary, or a tracked
// constant that was never materialized — the paper's disappearing literal
// operands), which of the paper's value "formats" it is in, and what the
// condition code is symbolically. Canonical state — every live register in
// its own RISC register, right-justified and sign-extended, CC in $cc — is
// re-established at register-exact points.

// fmtKind is the representation of a 16-bit TNS value within its 32-bit
// RISC register (the paper's "formats").
type fmtKind uint8

const (
	fRJS  fmtKind = iota // right-justified, sign-bit extension (canonical)
	fRJZ                 // right-justified, zero fill
	fRJU                 // right-justified, unknown fill
	fLJ                  // left-justified (value << 16), for overflow checks
	fPAIR                // full 32-bit value of a register pair (slot = lo)
)

type lkind uint8

const (
	lNone   lkind = iota // garbage / dead
	lConst               // known constant, possibly never materialized
	lReg                 // live in a RISC register (home or temporary)
	lPairHi              // high half of the pair owned by the slot above
)

// slotDesc describes one emulated register (one absolute barrel position).
type slotDesc struct {
	kind lkind
	reg  uint8   // valid when kind == lReg
	fmt  fmtKind // valid when kind == lReg
	c    int32   // valid when kind == lConst (sign-extended; pairs full 32)
	pair bool    // the slot holds a 32-bit pair value (lo half position)
}

// ccKind describes the symbolic condition code.
type ccKind uint8

const (
	ccNone ccKind = iota // dead or unknown
	ccIn                 // materialized in $cc
	ccVal                // sign of the 32-bit value in reg a
	ccCmp                // comparison a ? b (32-bit correct in both regs)
)

type ccState struct {
	kind     ccKind
	a, b     uint8
	unsigned bool
}

// state is the per-block (or extended-block) translation state.
type state struct {
	f  *fn
	p  *program
	rp int // absolute RP before the instruction being translated

	slot [8]slotDesc
	cc   ccState

	// envRP is the RP value currently reflected in $env bits 0..2, or -1.
	envRP int

	// ccLive is the CC liveness after the current TNS instruction.
	ccLive bool

	tempBusy [risc.NumTemp]bool
	tempTick [risc.NumTemp]int
	tick     int

	// extraPins protects in-flight registers (operands already fetched for
	// the TNS instruction being translated) from temp eviction.
	extraPins []uint8

	// Ablation switches copied from the options.
	noCSE    bool
	alwaysCC bool

	vt     map[vkey]vval
	memGen uint32 // bumped by stores that may alias memory loads
	ptrGen uint32 // bumped by stores that may alias pointer cells
	sGen   uint32 // bumped when S changes
	regGen [32]uint32
}

// vkey identifies a reusable value (common subexpression). Generations are
// part of the key so stale entries simply never match again.
type vkey struct {
	kind byte   // 'w' word load, 'c' pointer-cell load, 'a' cell byte addr
	mode uint8  // addressing mode for direct cells
	disp uint16 //
	gen  uint32 // memGen ('w') or ptrGen ('c') at creation; sGen folded in
	sgen uint32
}

type vval struct {
	reg uint8
	gen uint32 // regGen of reg at creation
}

func newState(f *fn, p *program) *state {
	return &state{f: f, p: p, envRP: -1, vt: map[vkey]vval{}}
}

// resetBlock establishes canonical state at a block entry with the given
// absolute RP.
func (s *state) resetBlock(rp int) {
	s.rp = rp & 7
	for i := range s.slot {
		s.slot[i] = slotDesc{kind: lNone}
	}
	// Canonical: every slot is (potentially) live in its home, RJS.
	for i := 0; i < 8; i++ {
		s.slot[i] = slotDesc{kind: lReg, reg: homeOf(i), fmt: fRJS}
	}
	s.cc = ccState{kind: ccIn}
	s.envRP = s.rp
	for i := range s.tempBusy {
		s.tempBusy[i] = false
	}
	s.vt = map[vkey]vval{}
	s.memGen++
	s.ptrGen++
	s.sGen++
}

func homeOf(absReg int) uint8 { return risc.RegR0 + uint8(((absReg%8)+8)%8) }

// --- temporaries -----------------------------------------------------------

// allocTemp returns a free temporary register, spilling value-table
// entries if needed (never TNS state: slots and CC pin their registers).
func (s *state) allocTemp() uint8 {
	s.tick++
	pinned := s.pinnedSet()
	best, bestTick := -1, int(^uint(0)>>1)
	for i := 0; i < risc.NumTemp; i++ {
		r := uint8(risc.RegT0 + i)
		if pinned[r] {
			continue
		}
		if !s.tempBusy[i] {
			s.takeTemp(i)
			return r
		}
		if s.tempTick[i] < bestTick {
			best, bestTick = i, s.tempTick[i]
		}
	}
	if best < 0 {
		panic("core: out of temporaries")
	}
	s.takeTemp(best)
	return uint8(risc.RegT0 + best)
}

func (s *state) takeTemp(i int) {
	s.tempBusy[i] = true
	s.tempTick[i] = s.tick
	s.killReg(uint8(risc.RegT0 + i))
}

// touchTemp refreshes the eviction clock for a register if it is a temp.
func (s *state) touchTemp(r uint8) {
	if r >= risc.RegT0 && r < risc.RegT0+risc.NumTemp {
		s.tick++
		s.tempTick[r-risc.RegT0] = s.tick
	}
}

// pin protects r from eviction until the end of the current TNS
// instruction's translation (unpinAll).
func (s *state) pin(r uint8) { s.extraPins = append(s.extraPins, r) }

// unpinAll releases all instruction-scope pins.
func (s *state) unpinAll() { s.extraPins = s.extraPins[:0] }

func (s *state) pinnedSet() [32]bool {
	var pinned [32]bool
	for _, r := range s.extraPins {
		pinned[r] = true
	}
	for i := range s.slot {
		if s.slot[i].kind == lReg {
			pinned[s.slot[i].reg] = true
		}
	}
	if s.cc.kind == ccVal || s.cc.kind == ccCmp {
		pinned[s.cc.a] = true
		pinned[s.cc.b] = true
	}
	return pinned
}

// killReg invalidates tracked values living in r (it is about to be
// overwritten). The caller must have dealt with CC and slot references.
func (s *state) killReg(r uint8) {
	s.regGen[r]++
}

// writeBarrier prepares to overwrite phys: if the symbolic CC references
// it and CC is still needed, materialize CC first; if another slot aliases
// it, give that slot its own copy.
func (s *state) writeBarrier(phys uint8, exceptSlot int) {
	if (s.cc.kind == ccVal || s.cc.kind == ccCmp) &&
		(s.cc.a == phys || s.cc.b == phys) && s.ccLive {
		s.materializeCC()
	}
	for i := range s.slot {
		if i == exceptSlot {
			continue
		}
		if s.slot[i].kind == lReg && s.slot[i].reg == phys {
			t := s.allocTemp()
			s.f.move(t, phys)
			s.slot[i].reg = t
		}
	}
	s.killReg(phys)
}

// --- value access ------------------------------------------------------

// valIn returns a register holding slot i's value in one of the formats
// allowed by mask (bitmask of 1<<fmtKind), converting or materializing as
// needed. The returned register must not be written by the caller.
func (s *state) valIn(i int, allowed uint8) uint8 {
	i = ((i % 8) + 8) % 8
	d := &s.slot[i]
	// Single-word access to half of a register pair splits the pair.
	if d.kind == lPairHi {
		s.unpackPair((i + 1) & 7)
		d = &s.slot[i]
	}
	if d.pair && allowed&pairOK == 0 {
		if d.kind == lConst {
			c := d.c
			s.slot[i] = slotDesc{kind: lConst, c: int32(int16(c))}
			s.slot[(i-1+8)&7] = slotDesc{kind: lConst, c: c >> 16}
		} else {
			s.unpackPair(i)
		}
		d = &s.slot[i]
	}
	switch d.kind {
	case lConst:
		if d.c == 0 && allowed&(1<<fRJS|1<<fRJZ) != 0 && !d.pair {
			return risc.RegZero
		}
		t := s.allocTemp()
		if d.pair {
			s.f.li(t, d.c)
			*d = slotDesc{kind: lReg, reg: t, fmt: fPAIR, pair: true}
		} else if allowed&(1<<fLJ) != 0 && allowed&(1<<fRJS) == 0 {
			// Materialize directly in the requested left-justified form.
			s.f.li(t, int32(int16(d.c))<<16)
			*d = slotDesc{kind: lReg, reg: t, fmt: fLJ}
		} else {
			s.f.li(t, int32(int16(d.c)))
			*d = slotDesc{kind: lReg, reg: t, fmt: fRJS}
		}
		// The produced format may still not match (e.g. RJZ-only demand);
		// let the register path convert.
		return s.valIn(i, allowed)
	case lReg:
		s.touchTemp(d.reg)
		if allowed&(1<<d.fmt) != 0 {
			return d.reg
		}
		t := s.allocTemp()
		s.convert(t, d.reg, d.fmt, allowed)
		d.reg = t
		d.fmt = firstAllowed(allowed, d.fmt)
		return t
	case lPairHi:
		panic("core: direct access to pair high half")
	default:
		// Garbage slot read: undefined program behaviour; give it a
		// deterministic zero so both execution modes agree.
		*d = slotDesc{kind: lConst, c: 0}
		return s.valIn(i, allowed)
	}
}

func firstAllowed(allowed uint8, from fmtKind) fmtKind {
	// Conversion targets in preference order.
	prefs := [...]fmtKind{fRJS, fRJZ, fLJ, fPAIR, fRJU}
	for _, f := range prefs {
		if allowed&(1<<f) != 0 {
			return f
		}
	}
	return from
}

// convert emits code turning value src (format from) into dst with a
// format permitted by allowed.
func (s *state) convert(dst, src uint8, from fmtKind, allowed uint8) {
	to := firstAllowed(allowed, from)
	switch {
	case from == fRJU && to == fRJS, from == fLJ && to == fRJS && false:
		s.f.shift(risc.SLL, dst, src, 16)
		s.f.shift(risc.SRA, dst, dst, 16)
	case from == fRJU && to == fRJZ, from == fRJS && to == fRJZ:
		s.f.imm(risc.ANDI, dst, src, 0xFFFF)
	case from == fRJZ && to == fRJS:
		s.f.shift(risc.SLL, dst, src, 16)
		s.f.shift(risc.SRA, dst, dst, 16)
	case from == fLJ && to == fRJS:
		s.f.shift(risc.SRA, dst, src, 16)
	case from == fLJ && to == fRJZ:
		s.f.shift(risc.SRL, dst, src, 16)
	case to == fLJ:
		s.f.shift(risc.SLL, dst, src, 16)
	case from == fPAIR && to == fRJS:
		s.f.shift(risc.SLL, dst, src, 16)
		s.f.shift(risc.SRA, dst, dst, 16)
	case from == fPAIR && to == fRJZ:
		s.f.imm(risc.ANDI, dst, src, 0xFFFF)
	case to == fPAIR:
		// Only reachable for RJS sources: a sign-extended 16-bit value IS
		// a correct 32-bit value.
		if from != fRJS {
			s.f.shift(risc.SLL, dst, src, 16)
			s.f.shift(risc.SRA, dst, dst, 16)
		} else {
			s.f.move(dst, src)
		}
	default:
		s.f.move(dst, src)
	}
}

const (
	anyRJ  = 1<<fRJS | 1<<fRJZ | 1<<fRJU // low 16 bits correct
	signOK = 1 << fRJS                   // full signed 32-bit correct
	zeroOK = 1 << fRJZ                   // full unsigned 32-bit correct
	pairOK = 1 << fPAIR
)

// retainTemp re-marks a temporary as busy (a popped slot's register being
// given a new owner).
func (s *state) retainTemp(r uint8) {
	if r >= risc.RegT0 && r < risc.RegT0+risc.NumTemp {
		s.tempBusy[r-risc.RegT0] = true
	}
}

// materializeConst returns a register holding the constant (using $zero
// for 0).
func (s *state) materializeConst(c int32) uint8 {
	if c == 0 {
		return risc.RegZero
	}
	t := s.allocTemp()
	s.f.li(t, c)
	return t
}

// constOf reports slot i's constant value if tracked.
func (s *state) constOf(i int) (int32, bool) {
	d := &s.slot[((i%8)+8)%8]
	if d.kind == lConst {
		return d.c, true
	}
	return 0, false
}

// --- stack operations ----------------------------------------------------

// pushDesc pushes a new value onto the emulated register stack.
func (s *state) pushDesc(d slotDesc) {
	s.rp = (s.rp + 1) & 7
	s.dropSlot(s.rp)
	s.slot[s.rp] = d
}

// popDesc pops the top descriptor.
func (s *state) popDesc() slotDesc {
	d := s.slot[s.rp]
	if d.kind == lPairHi {
		panic("core: popping half of a pair")
	}
	s.dropSlot(s.rp)
	s.rp = (s.rp - 1) & 7
	return d
}

// dropSlot forgets a slot (its storage may be reused).
func (s *state) dropSlot(i int) {
	i = ((i % 8) + 8) % 8
	if s.slot[i].kind == lReg {
		r := s.slot[i].reg
		if r >= risc.RegT0 && r < risc.RegT0+risc.NumTemp {
			// Temp freed unless another slot or CC still uses it.
			inUse := false
			for j := range s.slot {
				if j != i && s.slot[j].kind == lReg && s.slot[j].reg == r {
					inUse = true
				}
			}
			if s.cc.kind == ccVal || s.cc.kind == ccCmp {
				if s.cc.a == r || s.cc.b == r {
					inUse = true
				}
			}
			if !inUse {
				s.tempBusy[r-risc.RegT0] = false
			}
		}
	}
	s.slot[i] = slotDesc{kind: lNone}
}

// pushPair pushes a 32-bit pair (occupying two slots; the value lives with
// the low/top slot).
func (s *state) pushPair(d slotDesc) {
	s.rp = (s.rp + 1) & 7
	s.dropSlot(s.rp)
	s.slot[s.rp] = slotDesc{kind: lPairHi}
	s.rp = (s.rp + 1) & 7
	s.dropSlot(s.rp)
	d.pair = true
	if d.kind == lReg {
		d.fmt = fPAIR
	}
	s.slot[s.rp] = d
}

// popPair pops a 32-bit pair, returning a register holding the full value
// (or its constant).
func (s *state) popPair() slotDesc {
	d := s.slot[s.rp]
	if d.pair {
		s.dropSlot(s.rp)
		s.rp = (s.rp - 1) & 7
		s.dropSlot(s.rp) // the lPairHi half
		s.rp = (s.rp - 1) & 7
		return d
	}
	// The two slots were pushed independently (lo on top, hi below):
	// pack them into one register: pair = hi<<16 | lo&0xFFFF.
	lo := s.popDesc()
	hi := s.popDesc()
	if lo.kind == lConst && hi.kind == lConst {
		return slotDesc{kind: lConst, c: int32(hi.c<<16 | (lo.c & 0xFFFF)), pair: true}
	}
	// Materialize: t = (hi << 16) | zext16(lo)
	s.slot[(s.rp+1)&7] = hi
	s.slot[(s.rp+2)&7] = lo // temporarily restore for valIn bookkeeping
	hiR := s.valIn(s.rp+1, anyRJ)
	t := s.allocTemp()
	s.f.shift(risc.SLL, t, hiR, 16)
	loR := s.valIn(s.rp+2, zeroOK)
	s.f.alu(risc.OR, t, t, loR)
	s.dropSlot(s.rp + 1)
	s.dropSlot(s.rp + 2)
	return slotDesc{kind: lReg, reg: t, fmt: fPAIR, pair: true}
}

// --- condition code --------------------------------------------------------

// setCCFromValue records CC as the sign of the (sign-correct 32-bit) value
// in reg, if CC is live; otherwise the flag computation is elided, which
// the paper calls the most important optimization.
func (s *state) setCCFromValue(reg uint8) {
	if s.alwaysCC {
		s.cc = ccState{kind: ccVal, a: reg, b: reg}
		s.materializeCC()
		return
	}
	if !s.ccLive {
		s.cc = ccState{kind: ccNone}
		s.f.stats.ElidedFlagOps++
		return
	}
	s.cc = ccState{kind: ccVal, a: reg, b: reg}
}

// setCCFromCmp records CC as a comparison between two registers.
func (s *state) setCCFromCmp(a, b uint8, unsigned bool) {
	if s.alwaysCC {
		s.cc = ccState{kind: ccCmp, a: a, b: b, unsigned: unsigned}
		s.materializeCC()
		return
	}
	if !s.ccLive {
		s.cc = ccState{kind: ccNone}
		s.f.stats.ElidedFlagOps++
		return
	}
	s.cc = ccState{kind: ccCmp, a: a, b: b, unsigned: unsigned}
}

// materializeCC forces CC into $cc.
func (s *state) materializeCC() {
	switch s.cc.kind {
	case ccIn, ccNone:
		s.cc = ccState{kind: ccIn}
		return
	case ccVal:
		s.f.move(risc.RegCC, s.cc.a)
	case ccCmp:
		op := risc.SLT
		if s.cc.unsigned {
			op = risc.SLTU
		}
		t1 := s.allocTemp()
		t2 := s.allocTemp()
		s.f.alu(op, t1, s.cc.a, s.cc.b)
		s.f.alu(op, t2, s.cc.b, s.cc.a)
		s.f.alu(risc.SUBU, risc.RegCC, t2, t1)
		s.tempBusy[t1-risc.RegT0] = false
		s.tempBusy[t2-risc.RegT0] = false
	}
	s.cc = ccState{kind: ccIn}
}

// --- canonicalization ------------------------------------------------------

// canonicalize materializes the live portion of the TNS state: live slots
// into their homes (RJS, pairs unpacked), CC into $cc if live, and the RP
// field of $env. liveMask selects which registers matter (bit 8 = CC).
// After canonicalization the state is what any register-exact point — and
// the interpreter — expects.
func (s *state) canonicalize(liveMask uint16) {
	// Unpack pairs first (they occupy two slots).
	for i := 0; i < 8; i++ {
		if s.slot[i].kind == lReg && s.slot[i].pair &&
			(liveMask&regBit(i) != 0 || liveMask&regBit(i-1) != 0) {
			s.unpackPair(i)
		}
		if s.slot[i].kind == lConst && s.slot[i].pair &&
			(liveMask&regBit(i) != 0 || liveMask&regBit(i-1) != 0) {
			c := s.slot[i].c
			s.slot[i] = slotDesc{kind: lConst, c: int32(int16(c))}
			s.slot[(i-1+8)&7] = slotDesc{kind: lConst, c: c >> 16}
		}
	}
	for i := 0; i < 8; i++ {
		if liveMask&regBit(i) == 0 {
			continue
		}
		s.materializeSlot(i)
	}
	if liveMask&liveCC != 0 {
		s.materializeCC()
	} else if s.cc.kind != ccIn {
		s.cc = ccState{kind: ccNone}
	}
	s.syncEnvRP()
}

// unpackPair splits the 32-bit pair at slot i into its two 16-bit halves.
func (s *state) unpackPair(i int) {
	d := s.slot[i]
	pr := d.reg
	hiIdx := (i - 1 + 8) & 7
	hiT := s.allocTemp()
	s.f.shift(risc.SRA, hiT, pr, 16)
	loT := s.allocTemp()
	s.f.shift(risc.SLL, loT, pr, 16)
	s.f.shift(risc.SRA, loT, loT, 16)
	s.slot[i] = slotDesc{kind: lReg, reg: loT, fmt: fRJS}
	s.slot[hiIdx] = slotDesc{kind: lReg, reg: hiT, fmt: fRJS}
	// Free the pair's register if it was a temp.
	if pr >= risc.RegT0 && pr < risc.RegT0+risc.NumTemp {
		s.tempBusy[pr-risc.RegT0] = false
	}
}

// materializeSlot forces slot i into its home register, RJS.
func (s *state) materializeSlot(i int) {
	i = ((i % 8) + 8) % 8
	home := homeOf(i)
	d := &s.slot[i]
	switch d.kind {
	case lNone, lPairHi:
		return // dead or handled with its pair owner
	case lConst:
		s.writeBarrier(home, i)
		s.f.li(home, int32(int16(d.c)))
		*d = slotDesc{kind: lReg, reg: home, fmt: fRJS}
	case lReg:
		if d.reg == home && d.fmt == fRJS {
			return
		}
		src, sfmt := d.reg, d.fmt
		s.writeBarrier(home, i)
		if sfmt == fRJS {
			s.f.move(home, src)
		} else {
			s.convert(home, src, sfmt, signOK)
		}
		if src != home && src >= risc.RegT0 && src < risc.RegT0+risc.NumTemp {
			stillUsed := false
			for j := range s.slot {
				if j != i && s.slot[j].kind == lReg && s.slot[j].reg == src {
					stillUsed = true
				}
			}
			if !stillUsed && !((s.cc.kind == ccVal || s.cc.kind == ccCmp) && (s.cc.a == src || s.cc.b == src)) {
				s.tempBusy[src-risc.RegT0] = false
			}
		}
		*d = slotDesc{kind: lReg, reg: home, fmt: fRJS}
	}
}

// syncEnvRP updates the RP field of $env to the current static RP.
func (s *state) syncEnvRP() {
	if s.envRP == s.rp {
		return
	}
	// env = (env & ~7) | rp
	s.f.imm(risc.ANDI, risc.RegENV, risc.RegENV, ^int32(7)&0x1FF)
	if s.rp != 0 {
		s.f.imm(risc.ORI, risc.RegENV, risc.RegENV, int32(s.rp))
	}
	s.envRP = s.rp
}

// --- value table ----------------------------------------------------------

// lookupVT returns a register holding the keyed value, if still valid.
func (s *state) lookupVT(k vkey) (uint8, bool) {
	if s.noCSE {
		return 0, false
	}
	v, ok := s.vt[k]
	if !ok {
		return 0, false
	}
	if s.regGen[v.reg] != v.gen {
		delete(s.vt, k)
		return 0, false
	}
	s.touchTemp(v.reg)
	return v.reg, true
}

func (s *state) storeVT(k vkey, reg uint8) {
	s.vt[k] = vval{reg: reg, gen: s.regGen[reg]}
}

// invalidateLoads is called on dynamic stores (indirect, indexed, extended,
// block moves): every cached word load becomes stale. Pointer cells too,
// unless the Fast option's byte-store assumption applies.
func (s *state) invalidateLoads(killPtrCells bool) {
	s.memGen++
	if killPtrCells {
		s.ptrGen++
	}
}

// invalidateStatic is called on a store to a statically known cell: only
// entries that can alias it die. G-relative cells below the global limit
// cannot alias L/S-relative cells (the memory stack sits above the
// globals), which is what lets redundant fetches survive unrelated stores —
// the paper's most frequent form of common subexpression.
func (s *state) invalidateStatic(mode uint8, disp uint16, words int, globalWords uint16) {
	gRegion := mode == 0 /* ModeG */ && disp+uint16(words) <= globalWords
	for k := range s.vt {
		if k.kind != 'w' && k.kind != 'c' && k.kind != 'a' {
			continue
		}
		kG := k.mode == 0 && k.disp < globalWords
		switch {
		case gRegion && !kG:
			continue // global store cannot touch a stack-region cell
		case !gRegion && kG:
			continue // stack store cannot touch a global cell
		case gRegion && kG:
			if k.disp < disp || k.disp >= disp+uint16(words) {
				continue // distinct global cells
			}
		default:
			// Both in the stack region: L+, L- and S- forms may alias
			// one another; kill them all.
		}
		delete(s.vt, k)
	}
}

func (s *state) String() string {
	return fmt.Sprintf("state(rp=%d)", s.rp)
}
