package ob0

import (
	"fmt"

	"tnsr/internal/backend"
)

// Encode lowers the virtual instruction stream to ob0 words. Unlike the
// MIPS backend's 1:1 mapping, ob0 lowering changes instruction widths, so
// Encoded.Pos is a real remapping:
//
//   - Delay-slot nops vanish (0 words). The raw emitter always places an
//     explicit nop after every branch and jump, and the delay-slot
//     scheduler never runs for a target without delay slots, so the
//     instruction after a control transfer is a nop by construction —
//     anything else is an internal error, not a degradation.
//   - MIPS-shaped compare-and-branch becomes a cmp + flag-branch pair
//     (2 words). The zero-compare forms (blez &c) compare against $z.
//   - MULT/DIV fuse with the MFLO that, by the emitter's construction,
//     immediately follows them: the MFLO's destination becomes the
//     mul/dvq destination and the MFLO itself vanishes. A DIV used only
//     for its remainder is followed directly by MFHI instead; it lowers
//     to a dvq with destination $z, and MFHI lowers to mvh wherever it
//     appears (the H register survives until the next multiply or
//     divide, exactly like HI).
//   - LUI becomes mvhi; the trapping ADD/ADDI become addt/adti and the
//     non-trapping ADDU/ADDIU become ob0's plain add/addi; JAL/JALR
//     become the linking jla/jlr, whose link value (pc+1)<<2 points at
//     the instruction after the dropped slot nop — the same virtual
//     instruction a MIPS jal returns to.
//
// Labels resolve through Pos, so branch targets that pointed at dropped
// slot nops land on the instruction after them, which is what executing
// the nop would have reached.
func (b *B) Encode(ins []backend.Inst, labelAt func(backend.Label) (int32, error),
	base uint32) (backend.Encoded, error) {
	n := len(ins)
	width := make([]int8, n)
	fuseDest := make([]uint8, n) // MULT/DIV: general destination register
	consumed := make([]bool, n)  // MFLOs folded into a preceding MULT/DIV

	errAt := func(i int, format string, args ...interface{}) error {
		return fmt.Errorf("ob0: at RISC %d (tns %d): %s",
			i, ins[i].TNSAddr, fmt.Sprintf(format, args...))
	}

	// Pass A: widths and fusion.
	for i := range ins {
		if consumed[i] {
			continue
		}
		r := &ins[i]
		if i > 0 && !ins[i-1].IsWord && ins[i-1].Op.HasDelaySlot() {
			if !r.IsNop() {
				return backend.Encoded{}, errAt(i, "non-nop delay slot %s", r.Op)
			}
			continue // width 0
		}
		switch {
		case r.IsWord, r.HasLA:
			width[i] = 1
		case r.Op == backend.BEQ, r.Op == backend.BNE, r.Op == backend.BLEZ,
			r.Op == backend.BGTZ, r.Op == backend.BLTZ, r.Op == backend.BGEZ:
			width[i] = 2
		case r.Op == backend.MULT, r.Op == backend.MULTU,
			r.Op == backend.DIV, r.Op == backend.DIVU:
			width[i] = 1
			if i+1 < n && !ins[i+1].IsWord && ins[i+1].Op == backend.MFLO {
				fuseDest[i] = ins[i+1].Rd
				consumed[i+1] = true
			}
		case r.Op == backend.MFLO:
			// Never emitted detached from its MULT/DIV; a stray one means
			// the emitter's adjacency invariant broke.
			return backend.Encoded{}, errAt(i, "mflo without adjacent mult/div")
		default:
			width[i] = 1
		}
	}

	// Pass B: positions.
	pos := make([]int32, n+1)
	var p int32
	for i := 0; i < n; i++ {
		pos[i] = p
		p += int32(width[i])
	}
	pos[n] = p

	wordPos := func(l backend.Label) (int32, error) {
		idx, err := labelAt(l)
		if err != nil {
			return 0, err
		}
		return pos[idx], nil
	}

	// Pass C: emission.
	code := make([]uint32, 0, p)
	for i := range ins {
		if width[i] == 0 {
			continue
		}
		r := &ins[i]
		w, err := b.lowerOne(r, pos[i], base, fuseDest[i], wordPos)
		if err != nil {
			return backend.Encoded{}, errAt(i, "%s", err)
		}
		code = append(code, w...)
		if len(w) != int(width[i]) {
			return backend.Encoded{}, errAt(i, "width drift: planned %d emitted %d",
				width[i], len(w))
		}
	}
	return backend.Encoded{Code: code, Pos: pos}, nil
}

// branchFor maps a virtual compare-and-branch to the ob0 flag branch that
// tests the same relation after cmp rs, rt (rt = $z for the zero forms).
var branchFor = map[backend.Op]Op{
	backend.BEQ:  BEQ,
	backend.BNE:  BNE,
	backend.BLEZ: BLE,
	backend.BGTZ: BGT,
	backend.BLTZ: BLT,
	backend.BGEZ: BGE,
}

func (b *B) lowerOne(r *backend.Inst, at int32, base uint32, fuse uint8,
	wordPos func(backend.Label) (int32, error)) ([]uint32, error) {
	one := func(w uint32) ([]uint32, error) { return []uint32{w}, nil }
	if r.IsWord {
		if r.JLbl != backend.NoLabel {
			p, err := wordPos(r.JLbl)
			if err != nil {
				return nil, err
			}
			return one((base + uint32(p)) << 2) // absolute RISC byte address
		}
		return one(uint32(r.Imm))
	}
	if r.HasLA {
		p, err := wordPos(r.LALbl)
		if err != nil {
			return nil, err
		}
		v := uint32(backend.CodeWindow) + ((base + uint32(p)) << 2)
		if r.LAHi {
			return one(EncI(MVHI, r.Rt, 0, int32(v>>16)))
		}
		return one(EncI(IORI, r.Rt, r.Rs, int32(v&0xFFFF)))
	}
	switch r.Op {
	case backend.SLL:
		return one(EncI(LSLI, r.Rd, r.Rt, int32(r.Shamt)))
	case backend.SRL:
		return one(EncI(LSRI, r.Rd, r.Rt, int32(r.Shamt)))
	case backend.SRA:
		return one(EncI(ASRI, r.Rd, r.Rt, int32(r.Shamt)))
	case backend.SLLV:
		// Virtual convention: Rt holds the value, Rs the amount.
		return one(EncR(LSL, r.Rd, r.Rt, r.Rs))
	case backend.SRLV:
		return one(EncR(LSR, r.Rd, r.Rt, r.Rs))
	case backend.SRAV:
		return one(EncR(ASR, r.Rd, r.Rt, r.Rs))
	case backend.ADD:
		return one(EncR(ADDT, r.Rd, r.Rs, r.Rt))
	case backend.ADDU:
		return one(EncR(ADD, r.Rd, r.Rs, r.Rt))
	case backend.SUB:
		return one(EncR(SUBT, r.Rd, r.Rs, r.Rt))
	case backend.SUBU:
		return one(EncR(SUB, r.Rd, r.Rs, r.Rt))
	case backend.AND:
		return one(EncR(AND, r.Rd, r.Rs, r.Rt))
	case backend.OR:
		return one(EncR(IOR, r.Rd, r.Rs, r.Rt))
	case backend.XOR:
		return one(EncR(XOR, r.Rd, r.Rs, r.Rt))
	case backend.NOR:
		return one(EncR(NOR, r.Rd, r.Rs, r.Rt))
	case backend.SLT:
		return one(EncR(SLT, r.Rd, r.Rs, r.Rt))
	case backend.SLTU:
		return one(EncR(SLTU, r.Rd, r.Rs, r.Rt))
	case backend.ADDI:
		return one(EncI(ADTI, r.Rt, r.Rs, r.Imm))
	case backend.ADDIU:
		return one(EncI(ADDI, r.Rt, r.Rs, r.Imm))
	case backend.SLTI:
		return one(EncI(SLTI, r.Rt, r.Rs, r.Imm))
	case backend.SLTIU:
		return one(EncI(SLTIU, r.Rt, r.Rs, r.Imm))
	case backend.ANDI:
		return one(EncI(ANDI, r.Rt, r.Rs, r.Imm))
	case backend.ORI:
		return one(EncI(IORI, r.Rt, r.Rs, r.Imm))
	case backend.XORI:
		return one(EncI(XORI, r.Rt, r.Rs, r.Imm))
	case backend.LUI:
		return one(EncI(MVHI, r.Rt, 0, r.Imm))
	case backend.LB:
		return one(EncM(LDB, r.Rt, r.Rs, r.Imm))
	case backend.LBU:
		return one(EncM(LDBU, r.Rt, r.Rs, r.Imm))
	case backend.LH:
		return one(EncM(LDH, r.Rt, r.Rs, r.Imm))
	case backend.LHU:
		return one(EncM(LDHU, r.Rt, r.Rs, r.Imm))
	case backend.LW:
		return one(EncM(LDW, r.Rt, r.Rs, r.Imm))
	case backend.SB:
		return one(EncM(STB, r.Rt, r.Rs, r.Imm))
	case backend.SH:
		return one(EncM(STH, r.Rt, r.Rs, r.Imm))
	case backend.SW:
		return one(EncM(STW, r.Rt, r.Rs, r.Imm))
	case backend.BEQ, backend.BNE, backend.BLEZ, backend.BGTZ,
		backend.BLTZ, backend.BGEZ:
		t, err := wordPos(r.Lbl)
		if err != nil {
			return nil, err
		}
		// The flag branch sits at at+1; its displacement is relative to
		// the word after it.
		disp := t - (at + 2)
		return []uint32{
			EncR(CMP, 0, r.Rs, r.Rt),
			EncBr(branchFor[r.Op], disp),
		}, nil
	case backend.J, backend.JAL:
		op := JA
		if r.Op == backend.JAL {
			op = JLA
		}
		if r.JLbl != backend.NoLabel {
			p, err := wordPos(r.JLbl)
			if err != nil {
				return nil, err
			}
			return one(EncJ(op, base+uint32(p)))
		}
		return one(EncJ(op, r.JTarget))
	case backend.JR:
		return one(EncJR(r.Rs))
	case backend.JALR:
		return one(EncJLR(r.Rd, r.Rs))
	case backend.MULT:
		return one(EncR(MUL, fuse, r.Rs, r.Rt))
	case backend.MULTU:
		return one(EncR(MULU, fuse, r.Rs, r.Rt))
	case backend.DIV:
		return one(EncR(DVQ, fuse, r.Rs, r.Rt))
	case backend.DIVU:
		return one(EncR(DVQU, fuse, r.Rs, r.Rt))
	case backend.MFHI:
		return one(EncR(MVH, r.Rd, 0, 0))
	case backend.BREAK:
		return one(EncBrk(r.Code))
	case backend.SYSCALL:
		return one(EncSvc(r.Code))
	}
	return nil, fmt.Errorf("unencodable op %s", r.Op)
}
