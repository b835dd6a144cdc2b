package core

import "tnsr/internal/risc"

// The Accelerator's final phase, per the paper: reorder RISC instructions
// within each basic block to fill delay slots, eliminate NOPs, and reduce
// pipeline stalls. Stores are never moved relative to other memory
// operations, and no instruction crosses a label or exact-point barrier. A
// store that moves into the delay slot of a following branch "welds" two
// TNS statements together, which the debugger reports.

type schedStats struct {
	filledSlots int
	welded      int
}

// schedule optimizes f.ins in place and remaps label positions.
func schedule(f *fn) schedStats {
	var st schedStats
	labeled := make([]bool, len(f.ins)+1)
	for _, pos := range f.labelPos {
		if pos >= 0 && int(pos) <= len(f.ins) {
			labeled[pos] = true
		}
	}

	// Scheduling only drops nops, so out never outgrows f.ins; each block
	// is built in one reused buffer and copied out when it is flushed.
	out := make([]rinst, 0, len(f.ins))
	remap := make([]int32, len(f.ins)+1)
	flushBlock := func(start int, blk []rinst) []rinst {
		blk = fillDelaySlot(blk, &st)
		blk = avoidLoadUse(blk)
		for k := range blk {
			remap[start+k] = -1 // positions within a block are fluid
		}
		remap[start] = int32(len(out))
		return append(out, blk...)
	}

	blockStart := 0
	var blk []rinst
	for i := 0; i < len(f.ins); i++ {
		r := f.ins[i]
		if (labeled[i] || r.isExact) && len(blk) > 0 {
			out = flushBlock(blockStart, blk)
			blk, blockStart = blk[:0], i
		}
		if len(blk) == 0 {
			blockStart = i
		}
		blk = append(blk, r)
		// A control transfer plus its delay slot ends the block.
		if r.op.HasDelaySlot() && !r.isWord {
			// The next instruction is the delay slot: include it.
			if i+1 < len(f.ins) && !labeled[i+1] && !f.ins[i+1].isExact {
				blk = append(blk, f.ins[i+1])
				i++
			}
			out = flushBlock(blockStart, blk)
			blk, blockStart = blk[:0], i+1
		}
	}
	if len(blk) > 0 {
		out = flushBlock(blockStart, blk)
	}
	remap[len(f.ins)] = int32(len(out))

	// Remap labels. Every bound label points at a block start (or the end).
	for li, pos := range f.labelPos {
		if pos < 0 {
			continue
		}
		np := remap[pos]
		if np < 0 {
			// The label landed mid-block, which the emitter never does
			// for reachable labels; keep a safe fallback.
			for p := pos; p >= 0; p-- {
				if remap[p] >= 0 {
					np = remap[p]
					break
				}
			}
		}
		f.labelPos[li] = np
	}
	f.ins = out
	return st
}

// movable reports whether r may be reordered within its block at all.
func movable(r rinst) bool {
	if r.isWord || r.isExact || r.hasLA {
		return false
	}
	switch r.op {
	case risc.BREAK, risc.SYSCALL, risc.MULT, risc.MULTU, risc.DIV,
		risc.DIVU, risc.MFHI, risc.MFLO:
		return false
	}
	if r.op.HasDelaySlot() {
		return false
	}
	return true
}

func isMem(r rinst) bool { return r.op.IsLoad() || r.op.IsStore() }

// independent reports whether a and b can swap order.
func independent(a, b rinst) bool {
	da := a.toInstr().Def()
	db := b.toInstr().Def()
	// Write-write.
	if da >= 0 && da == db {
		return false
	}
	// a writes something b reads.
	if da > 0 {
		for _, u := range b.toInstr().Uses(nil) {
			if int(u) == da {
				return false
			}
		}
	}
	// b writes something a reads.
	if db > 0 {
		for _, u := range a.toInstr().Uses(nil) {
			if int(u) == db {
				return false
			}
		}
	}
	// Memory ordering: never reorder two memory operations if either
	// stores (stores keep their exact sequence; loads may pass loads).
	if isMem(a) && isMem(b) && (a.op.IsStore() || b.op.IsStore()) {
		return false
	}
	return true
}

// toInstr views an rinst as a decoded risc.Instr for def/use queries.
func (r rinst) toInstr() risc.Instr {
	return risc.Instr{Op: r.op, Rs: r.rs, Rt: r.rt, Rd: r.rd, Shamt: r.shamt}
}

// fillDelaySlot replaces [..., I, B, nop] with [..., B, I] when I is
// independent of the branch, in place.
func fillDelaySlot(blk []rinst, st *schedStats) []rinst {
	n := len(blk)
	if n < 3 {
		return blk
	}
	b := blk[n-2]
	slot := blk[n-1]
	if !b.op.HasDelaySlot() || b.isWord {
		return blk
	}
	if !(slot.op == risc.SLL && slot.rd == 0 && slot.rt == 0 && !slot.isWord) {
		return blk // the delay slot is already useful
	}
	cand := blk[n-3]
	if !movable(cand) || cand.isExact {
		return blk
	}
	// The branch must not depend on the candidate's result, and the
	// candidate must not clobber the branch's sources (JAL defines $ra).
	bi := b.toInstr()
	ci := cand.toInstr()
	cd := ci.Def()
	if cd >= 0 {
		for _, u := range bi.Uses(nil) {
			if int(u) == cd {
				return blk
			}
		}
	}
	bd := bi.Def()
	if bd >= 0 {
		if cd == bd {
			return blk
		}
		for _, u := range ci.Uses(nil) {
			if int(u) == bd {
				return blk
			}
		}
	}
	// Perform the move: drop the nop, swap candidate behind the branch.
	blk[n-3], blk[n-2] = b, cand
	st.filledSlots++
	if cand.op.IsStore() && cand.tnsAddr != b.tnsAddr {
		st.welded++
	}
	return blk[:n-1]
}

// avoidLoadUse breaks load-use pairs by hoisting a later independent
// instruction between them.
func avoidLoadUse(blk []rinst) []rinst {
	for i := 0; i+2 < len(blk); i++ {
		ld := blk[i]
		if !ld.op.IsLoad() {
			continue
		}
		use := blk[i+1]
		if use.op.HasDelaySlot() || use.isWord {
			// Never disturb a control transfer's pairing with its delay
			// slot.
			continue
		}
		usesLoaded := false
		for _, u := range use.toInstr().Uses(nil) {
			if u == ld.rt {
				usesLoaded = true
			}
		}
		if !usesLoaded {
			continue
		}
		x := blk[i+2]
		if !movable(x) || x.isExact {
			continue
		}
		// x must be independent of both the load and the consumer.
		if !independent(x, use) || !independent(ld, x) {
			continue
		}
		blk[i+1], blk[i+2] = x, use
	}
	return blk
}
