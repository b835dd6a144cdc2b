package ob0

import (
	"fmt"

	"tnsr/internal/backend"
)

// Assemble translates ob0 assembly text into instruction words through the
// shared front end (backend.Assemble: labels, .word, comments, operand
// syntax), so its syntax is the risc assembler's. Memory operands are
// "off(base)" where off may be a named constant. Pseudo-instructions: nop,
// move, li (32-bit constant), b (alias of ja), not, neg. R-type mnemonics
// accept an immediate third operand and rewrite to the immediate opcode
// (add -> addi, ior -> iori, lsl -> lsli, cmp -> cmpi, ...).
//
// extern provides named constants (runtime table addresses) usable
// wherever an immediate or li operand is expected.
func Assemble(src string, extern map[string]uint32) ([]uint32, map[string]uint32, error) {
	return backend.Assemble(src, extern, encodeLine)
}

// rOps are the three-register mnemonics; immFor rewrites them when the
// third operand is an immediate.
var rOps = map[string]Op{
	"add": ADD, "addt": ADDT, "sub": SUB, "subt": SUBT, "and": AND,
	"ior": IOR, "xor": XOR, "nor": NOR, "lsl": LSL, "lsr": LSR, "asr": ASR,
	"slt": SLT, "sltu": SLTU, "mul": MUL, "mulu": MULU,
	"dvq": DVQ, "dvqu": DVQU,
}

var immFor = map[Op]Op{
	ADD: ADDI, ADDT: ADTI, AND: ANDI, IOR: IORI, XOR: XORI,
	SLT: SLTI, SLTU: SLTIU, LSL: LSLI, LSR: LSRI, ASR: ASRI,
}

var iOps = map[string]Op{
	"addi": ADDI, "adti": ADTI, "andi": ANDI, "iori": IORI, "xori": XORI,
	"slti": SLTI, "sltiu": SLTIU, "lsli": LSLI, "lsri": LSRI, "asri": ASRI,
}

var memOps = map[string]Op{
	"ldb": LDB, "ldbu": LDBU, "ldh": LDH, "ldhu": LDHU, "ldw": LDW,
	"stb": STB, "sth": STH, "stw": STW,
}

var brOps = map[string]Op{
	"beq": BEQ, "bne": BNE, "blt": BLT, "bge": BGE, "ble": BLE, "bgt": BGT,
}

// encodeLine is the ob0 mnemonic encoder (backend.Encoder).
func encodeLine(a *backend.Asm, op string) error {
	switch op {
	case "nop":
		a.Put(Nop)
		return nil
	case "move":
		a.Put(EncR(ADD, a.Reg(0), a.Reg(1), backend.RegZero))
		return nil
	case "not":
		a.Put(EncR(NOR, a.Reg(0), a.Reg(1), backend.RegZero))
		return nil
	case "neg":
		a.Put(EncR(SUB, a.Reg(0), backend.RegZero, a.Reg(1)))
		return nil
	case "li":
		emitLI(a, a.Reg(0), uint32(a.Imm(1, backend.Word32)))
		return nil
	case "mvh":
		a.Put(EncR(MVH, a.Reg(0), 0, 0))
		return nil
	case "mvhi":
		a.Put(EncI(MVHI, a.Reg(0), 0, int32(a.Imm(1, immField(MVHI)))))
		return nil
	case "cmp":
		rb := a.Reg(0)
		if !a.IsReg(1) {
			a.Put(EncI(CMPI, 0, rb, int32(a.Imm(1, immField(CMPI)))))
			return nil
		}
		a.Put(EncR(CMP, 0, rb, a.Reg(1)))
		return nil
	case "cmpi":
		a.Put(EncI(CMPI, 0, a.Reg(0), int32(a.Imm(1, immField(CMPI)))))
		return nil
	case "b", "ja", "jla":
		o := JA
		if op == "jla" {
			o = JLA
		}
		a.Put(EncJ(o, uint32(a.Imm(0, backend.Target26))))
		return nil
	case "jr":
		a.Put(EncJR(a.Reg(0)))
		return nil
	case "jlr":
		a.Put(EncJLR(a.Reg(0), a.Reg(1)))
		return nil
	case "brk", "svc":
		var code int64
		if a.NumOps() > 0 {
			code = a.Imm(0, backend.Code20)
		}
		if op == "brk" {
			a.Put(EncBrk(uint32(code)))
		} else {
			a.Put(EncSvc(uint32(code)))
		}
		return nil
	}

	if o, ok := rOps[op]; ok {
		ra, rb := a.Reg(0), a.Reg(1)
		if a.NumOps() == 3 && !a.IsReg(2) {
			iop, ok := immFor[o]
			if !ok {
				return fmt.Errorf("%s does not take an immediate", op)
			}
			a.Put(EncI(iop, ra, rb, int32(a.Imm(2, immField(iop)))))
			return nil
		}
		a.Put(EncR(o, ra, rb, a.Reg(2)))
		return nil
	}
	if o, ok := iOps[op]; ok {
		ra, rb := a.Reg(0), a.Reg(1)
		a.Put(EncI(o, ra, rb, int32(a.Imm(2, immField(o)))))
		return nil
	}
	if o, ok := memOps[op]; ok {
		ra := a.Reg(0)
		off, base := a.Mem(1)
		a.Put(EncM(o, ra, base, off))
		return nil
	}
	if o, ok := brOps[op]; ok {
		a.Put(EncBr(o, a.Disp(0)))
		return nil
	}
	return fmt.Errorf("unknown mnemonic %q", op)
}

// emitLI loads a 32-bit constant with a deterministic width: one word for
// values expressible by iori/addi, an mvhi(+iori) pair otherwise.
func emitLI(a *backend.Asm, ra uint8, v uint32) {
	if v <= 0xFFFF {
		a.Put(EncI(IORI, ra, backend.RegZero, int32(v)))
		return
	}
	if int32(v) >= -32768 && int32(v) < 0 {
		a.Put(EncI(ADDI, ra, backend.RegZero, int32(v)))
		return
	}
	a.Put(EncI(MVHI, ra, 0, int32(v>>16)))
	if v&0xFFFF != 0 {
		a.Put(EncI(IORI, ra, ra, int32(v&0xFFFF)))
	}
}
