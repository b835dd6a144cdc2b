package core

import (
	"tnsr/internal/backend"
	"tnsr/internal/codefile"
	"tnsr/internal/risc"
)

// The Accelerator's final phase, per the paper: reorder RISC instructions
// within each basic block to fill delay slots, eliminate NOPs, and reduce
// pipeline stalls. Stores are never moved relative to other memory
// operations, and no instruction crosses a label or exact-point barrier. A
// store that moves into the delay slot of a following branch "welds" two
// TNS statements together, which the debugger reports.

// schedule optimizes f.ins in place and remaps label positions. Each
// block is rescheduled where it stands and then moved down over the nops
// earlier blocks dropped: blocks only shrink, so the write index never
// passes the read index, and every bound label starts a block, so a label
// moves with its block's first instruction.
func schedule(f *fn) {
	n := len(f.ins)
	// newPos[i] is -1 unless a label is bound at instruction i (or at the
	// end of the stream, i == n) or a placed block starts there; then it
	// is that instruction's new index.
	newPos := make([]int32, n+1)
	for i := range newPos {
		newPos[i] = -1
	}
	for _, pos := range f.labelPos {
		if pos >= 0 {
			newPos[pos] = 0
		}
	}
	barrier := func(i int) bool { return i == n || newPos[i] >= 0 || f.ins[i].IsExact }

	w := 0
	for start := 0; start < n; {
		// The block runs to the next barrier, or through a control
		// transfer and its delay slot (unless the slot is a barrier).
		end := start
		for {
			in := f.ins[end]
			end++
			if in.Op.HasDelaySlot() && !in.IsWord {
				if !barrier(end) {
					end++
				}
				break
			}
			if barrier(end) {
				break
			}
		}
		blk := avoidLoadUse(fillDelaySlot(f.ins[start:end], &f.stats))
		newPos[start] = int32(w)
		w += copy(f.ins[w:], blk)
		start = end
	}
	newPos[n] = int32(w)
	for li, pos := range f.labelPos {
		if pos >= 0 {
			f.labelPos[li] = newPos[pos]
		}
	}
	f.ins = f.ins[:w]
}

// movable reports whether r may be reordered within its block at all.
func movable(r backend.Inst) bool {
	if r.IsWord || r.IsExact || r.HasLA {
		return false
	}
	switch r.Op {
	case risc.BREAK, risc.SYSCALL, risc.MULT, risc.MULTU, risc.DIV,
		risc.DIVU, risc.MFHI, risc.MFLO:
		return false
	}
	if r.Op.HasDelaySlot() {
		return false
	}
	return true
}

func isMem(r backend.Inst) bool { return r.Op.IsLoad() || r.Op.IsStore() }

// independent reports whether a and b can swap order.
func independent(a, b backend.Inst) bool {
	da := toInstr(a).Def()
	db := toInstr(b).Def()
	// Write-write.
	if da >= 0 && da == db {
		return false
	}
	// a writes something b reads.
	if da > 0 {
		for _, u := range toInstr(b).Uses(nil) {
			if int(u) == da {
				return false
			}
		}
	}
	// b writes something a reads.
	if db > 0 {
		for _, u := range toInstr(a).Uses(nil) {
			if int(u) == db {
				return false
			}
		}
	}
	// Memory ordering: never reorder two memory operations if either
	// stores (stores keep their exact sequence; loads may pass loads).
	if isMem(a) && isMem(b) && (a.Op.IsStore() || b.Op.IsStore()) {
		return false
	}
	return true
}

// toInstr views a virtual instruction as a decoded risc.Instr for def/use
// queries.
func toInstr(r backend.Inst) risc.Instr {
	return risc.Instr{Op: r.Op, Rs: r.Rs, Rt: r.Rt, Rd: r.Rd, Shamt: r.Shamt}
}

// fillDelaySlot replaces [..., I, B, nop] with [..., B, I] when I is
// independent of the branch, in place.
func fillDelaySlot(blk []backend.Inst, st *codefile.AccelStats) []backend.Inst {
	n := len(blk)
	if n < 3 {
		return blk
	}
	b := blk[n-2]
	slot := blk[n-1]
	if !b.Op.HasDelaySlot() || b.IsWord {
		return blk
	}
	if !(slot.Op == risc.SLL && slot.Rd == 0 && slot.Rt == 0 && !slot.IsWord) {
		return blk // the delay slot is already useful
	}
	cand := blk[n-3]
	if !movable(cand) || cand.IsExact {
		return blk
	}
	// The branch must not depend on the candidate's result, and the
	// candidate must not clobber the branch's sources (JAL defines $ra).
	bi := toInstr(b)
	ci := toInstr(cand)
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
	st.FilledSlots++
	if cand.Op.IsStore() && cand.TNSAddr != b.TNSAddr {
		st.WeldedStmts++
	}
	return blk[:n-1]
}

// avoidLoadUse breaks load-use pairs by hoisting a later independent
// instruction between them.
func avoidLoadUse(blk []backend.Inst) []backend.Inst {
	for i := 0; i+2 < len(blk); i++ {
		ld := blk[i]
		if !ld.Op.IsLoad() {
			continue
		}
		use := blk[i+1]
		if use.Op.HasDelaySlot() || use.IsWord {
			// Never disturb a control transfer's pairing with its delay
			// slot.
			continue
		}
		usesLoaded := false
		for _, u := range toInstr(use).Uses(nil) {
			if u == ld.Rt {
				usesLoaded = true
			}
		}
		if !usesLoaded {
			continue
		}
		x := blk[i+2]
		if !movable(x) || x.IsExact {
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
