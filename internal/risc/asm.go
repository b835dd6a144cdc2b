package risc

import (
	"fmt"

	"tnsr/internal/backend"
)

// Assemble translates RISC assembly text into instruction words through
// the shared front end (backend.Assemble: labels, .word, comments, operand
// syntax). Pseudo-instructions: nop, move, li (32-bit constant via
// lui/ori), b (branch always), not, neg.
//
// extern provides named constants (runtime table addresses) usable wherever
// an immediate or li operand is expected.
func Assemble(src string, extern map[string]uint32) ([]uint32, map[string]uint32, error) {
	return backend.Assemble(src, extern, EncodeLine)
}

// EncodeLine is the MIPS mnemonic encoder (backend.Encoder).
func EncodeLine(a *backend.Asm, op string) error {
	switch op {
	case "nop":
		a.Put(NOP)
		return nil
	case "move":
		a.Put(EncALU(ADDU, a.Reg(0), a.Reg(1), RegZero))
		return nil
	case "not":
		a.Put(EncALU(NOR, a.Reg(0), a.Reg(1), RegZero))
		return nil
	case "neg":
		a.Put(EncALU(SUBU, a.Reg(0), RegZero, a.Reg(1)))
		return nil
	case "li":
		emitLI(a, a.Reg(0), uint32(a.Imm(1, backend.Word32)))
		return nil
	case "b":
		a.Put(EncBranch(BEQ, RegZero, RegZero, a.Disp(0)))
		return nil
	}

	if o, ok := aluOps[op]; ok {
		rd, rs := a.Reg(0), a.Reg(1)
		// Immediate forms are accepted for addu/and/or/xor/slt/sltu by
		// rewriting to the immediate opcode.
		if a.NumOps() == 3 && !a.IsReg(2) {
			iop, ok := immFor[o]
			if !ok {
				return fmt.Errorf("%s does not take an immediate", op)
			}
			a.Put(EncImm(iop, rd, rs, int32(a.Imm(2, immField(iop)))))
			return nil
		}
		rt := a.Reg(2)
		if o == SLLV || o == SRLV || o == SRAV {
			// "sllv rd, rt, rs": value first, then shift-amount register.
			a.Put(EncALU(o, rd, rt, rs))
			return nil
		}
		a.Put(EncALU(o, rd, rs, rt))
		return nil
	}
	if o, ok := immOps[op]; ok {
		rt := a.Reg(0)
		if o == LUI {
			a.Put(EncImm(LUI, rt, 0, int32(a.Imm(1, immField(LUI)))))
			return nil
		}
		rs := a.Reg(1)
		a.Put(EncImm(o, rt, rs, int32(a.Imm(2, immField(o)))))
		return nil
	}
	if o, ok := shiftOps[op]; ok {
		rd, rt := a.Reg(0), a.Reg(1)
		a.Put(EncShift(o, rd, rt, uint8(a.Imm(2, backend.Shift5))))
		return nil
	}
	if o, ok := memOps[op]; ok {
		rt := a.Reg(0)
		off, base := a.Mem(1)
		a.Put(EncMem(o, rt, base, off))
		return nil
	}
	switch op {
	case "beq", "bne":
		rs, rt := a.Reg(0), a.Reg(1)
		o := BEQ
		if op == "bne" {
			o = BNE
		}
		a.Put(EncBranch(o, rs, rt, a.Disp(2)))
		return nil
	case "blez", "bgtz", "bltz", "bgez":
		rs := a.Reg(0)
		o := map[string]Op{"blez": BLEZ, "bgtz": BGTZ, "bltz": BLTZ, "bgez": BGEZ}[op]
		a.Put(EncBranch(o, rs, 0, a.Disp(1)))
		return nil
	case "j", "jal":
		o := J
		if op == "jal" {
			o = JAL
		}
		a.Put(EncJ(o, uint32(a.Imm(0, backend.Target26))))
		return nil
	case "jr":
		a.Put(EncJR(a.Reg(0)))
		return nil
	case "jalr":
		a.Put(EncJALR(a.Reg(0), a.Reg(1)))
		return nil
	case "mult", "multu", "div", "divu":
		o := map[string]Op{"mult": MULT, "multu": MULTU, "div": DIV, "divu": DIVU}[op]
		a.Put(EncMulDiv(o, a.Reg(0), a.Reg(1)))
		return nil
	case "mfhi", "mflo":
		o := MFHI
		if op == "mflo" {
			o = MFLO
		}
		a.Put(EncMulDiv(o, a.Reg(0), 0))
		return nil
	case "break", "syscall":
		var code int64
		if a.NumOps() > 0 {
			code = a.Imm(0, backend.Code20)
		}
		if op == "break" {
			a.Put(EncBreak(uint32(code)))
		} else {
			a.Put(EncSyscall(uint32(code)))
		}
		return nil
	}
	return fmt.Errorf("unknown mnemonic %q", op)
}

// immField is the range of an immediate opcode's 16-bit field: the logical
// operations and LUI zero-extend it, the rest sign-extend it.
func immField(op Op) backend.Field {
	switch op {
	case ANDI, ORI, XORI, LUI:
		return backend.Unsigned16
	}
	return backend.Signed16
}

func emitLI(a *backend.Asm, rd uint8, v uint32) {
	if v <= 0xFFFF {
		a.Put(EncImm(ORI, rd, RegZero, int32(v)))
		return
	}
	if int32(v) >= -32768 && int32(v) < 0 {
		a.Put(EncImm(ADDIU, rd, RegZero, int32(v)))
		return
	}
	a.Put(EncImm(LUI, rd, 0, int32(v>>16)))
	if v&0xFFFF != 0 {
		a.Put(EncImm(ORI, rd, rd, int32(v&0xFFFF)))
	}
}

var aluOps = map[string]Op{
	"add": ADD, "addu": ADDU, "sub": SUB, "subu": SUBU, "and": AND,
	"or": OR, "xor": XOR, "nor": NOR, "slt": SLT, "sltu": SLTU,
	"sllv": SLLV, "srlv": SRLV, "srav": SRAV,
}

var immFor = map[Op]Op{
	ADD: ADDI, ADDU: ADDIU, AND: ANDI, OR: ORI, XOR: XORI,
	SLT: SLTI, SLTU: SLTIU,
}

var immOps = map[string]Op{
	"addi": ADDI, "addiu": ADDIU, "slti": SLTI, "sltiu": SLTIU,
	"andi": ANDI, "ori": ORI, "xori": XORI, "lui": LUI,
}

var shiftOps = map[string]Op{"sll": SLL, "srl": SRL, "sra": SRA}

var memOps = map[string]Op{
	"lb": LB, "lh": LH, "lw": LW, "lbu": LBU, "lhu": LHU,
	"sb": SB, "sh": SH, "sw": SW,
}
