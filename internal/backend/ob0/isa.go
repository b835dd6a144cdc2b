// Package ob0 is the second TNS/R backend: a compact Oberon-0-style RISC.
// Where the default target is a MIPS R3000 (two-operand compare-and-branch,
// branch delay slots, HI/LO multiply results), ob0 is a condition-flag
// machine with no delay slots and a single H special register — different
// enough that any target assumption leaking above the backend seam breaks
// loudly under the cross-backend differential oracle.
//
// The machine: 32 registers (register 0 hardwired to zero, conventions per
// backend.Reg*), three condition flags N/Z/V written only by CMP/CMPI,
// flag-tested conditional branches, absolute 26-bit jumps, register jumps
// through byte addresses (4x the word index, the cross-backend
// convention), and BRK/SVC carrying 20-bit codes under the same host
// protocol as the default target.
//
// Encodings (6-bit major opcode in bits 31..26):
//
//	R-type   op | a[25:21] | b[20:16] | c[15:11] | 0       a := b op c
//	I-type   op | a[25:21] | b[20:16] | imm16              a := b op imm
//	M-type   op | a[25:21] | b[20:16] | off16              mem[b+off] <-> a
//	B-type   op | 0        | disp16                        pc+1+disp
//	J-type   op | target26                                 absolute word
//	K-type   op | code20                                   BRK/SVC
package ob0

import (
	"fmt"

	"tnsr/internal/backend"
)

// Op identifies an ob0 operation; the enum value is the 6-bit major
// opcode.
type Op uint8

const (
	INVALID Op = 0x00

	// R-type: a := b op c (CMP writes flags only; MVH reads H).
	ADD  Op = 0x01 // a = b + c
	ADDT Op = 0x02 // a = b + c, trap on signed overflow
	SUB  Op = 0x03 // a = b - c
	SUBT Op = 0x04 // a = b - c, trap on signed overflow
	AND  Op = 0x05
	IOR  Op = 0x06
	XOR  Op = 0x07
	NOR  Op = 0x08
	LSL  Op = 0x09 // a = b << (c & 31)
	LSR  Op = 0x0A // logical right
	ASR  Op = 0x0B // arithmetic right
	SLT  Op = 0x0C // a = (b < c) signed
	SLTU Op = 0x0D // a = (b < c) unsigned
	CMP  Op = 0x0E // flags := b - c (a ignored)
	MUL  Op = 0x0F // a = low32(b*c) signed; H = high32
	MULU Op = 0x10 // unsigned
	DVQ  Op = 0x11 // a = b quo c; H = b rem c (signed)
	DVQU Op = 0x12 // unsigned
	MVH  Op = 0x13 // a = H

	// I-type: a := b op imm (sign- or zero-extended per the operation).
	ADDI  Op = 0x14 // sign
	ADTI  Op = 0x15 // sign, trap on signed overflow
	ANDI  Op = 0x16 // zero
	IORI  Op = 0x17 // zero
	XORI  Op = 0x18 // zero
	SLTI  Op = 0x19 // sign, signed compare
	SLTIU Op = 0x1A // sign-extended immediate, unsigned compare
	LSLI  Op = 0x1B // shamt = imm & 31
	LSRI  Op = 0x1C
	ASRI  Op = 0x1D
	MVHI  Op = 0x1E // a = imm << 16
	CMPI  Op = 0x1F // flags := b - sign(imm)

	// M-type loads and stores (big-endian data memory, as the TNS is).
	LDB  Op = 0x20 // sign-extending byte load
	LDBU Op = 0x21
	LDH  Op = 0x22
	LDHU Op = 0x23
	LDW  Op = 0x24
	STB  Op = 0x25
	STH  Op = 0x26
	STW  Op = 0x27

	// B-type flag branches, pc-relative to the next instruction.
	BEQ Op = 0x28 // Z
	BNE Op = 0x29 // !Z
	BLT Op = 0x2A // N != V
	BGE Op = 0x2B // N == V
	BLE Op = 0x2C // Z or N != V
	BGT Op = 0x2D // !Z and N == V

	// Jumps. Register jump targets are byte addresses (word index * 4).
	JA  Op = 0x2E // absolute 26-bit word index
	JLA Op = 0x2F // JA with R31 := (pc+1)<<2
	JR  Op = 0x30 // to R[b] >> 2
	JLR Op = 0x31 // JR with R[a] := (pc+1)<<2

	// Host protocol.
	BRK Op = 0x32 // stop with a 20-bit code
	SVC Op = 0x33 // host service call with a 20-bit code

	NumOps Op = 0x34
)

var opNames = [NumOps]string{
	INVALID: "invalid",
	ADD:     "add", ADDT: "addt", SUB: "sub", SUBT: "subt", AND: "and",
	IOR: "ior", XOR: "xor", NOR: "nor", LSL: "lsl", LSR: "lsr", ASR: "asr",
	SLT: "slt", SLTU: "sltu", CMP: "cmp", MUL: "mul", MULU: "mulu",
	DVQ: "dvq", DVQU: "dvqu", MVH: "mvh",
	ADDI: "addi", ADTI: "adti", ANDI: "andi", IORI: "iori", XORI: "xori",
	SLTI: "slti", SLTIU: "sltiu", LSLI: "lsli", LSRI: "lsri", ASRI: "asri",
	MVHI: "mvhi", CMPI: "cmpi",
	LDB: "ldb", LDBU: "ldbu", LDH: "ldh", LDHU: "ldhu", LDW: "ldw",
	STB: "stb", STH: "sth", STW: "stw",
	BEQ: "beq", BNE: "bne", BLT: "blt", BGE: "bge", BLE: "ble", BGT: "bgt",
	JA: "ja", JLA: "jla", JR: "jr", JLR: "jlr", BRK: "brk", SVC: "svc",
}

func (o Op) String() string {
	if o < NumOps && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// IsRType reports a three-register (or flag/special) ALU operation.
func (o Op) IsRType() bool { return o >= ADD && o <= MVH }

// IsIType reports an immediate ALU operation.
func (o Op) IsIType() bool { return o >= ADDI && o <= CMPI }

// IsLoad reports whether the operation reads data memory into A.
func (o Op) IsLoad() bool { return o >= LDB && o <= LDW }

// IsStore reports whether the operation writes data memory.
func (o Op) IsStore() bool { return o >= STB && o <= STW }

// IsBranch reports a conditional flag branch.
func (o Op) IsBranch() bool { return o >= BEQ && o <= BGT }

// IsJump reports an unconditional control transfer.
func (o Op) IsJump() bool { return o == JA || o == JLA || o == JR || o == JLR }

// Instr is a decoded ob0 instruction.
type Instr struct {
	Op      Op
	A, B, C uint8
	Imm     int32  // sign- or zero-extended per the operation
	Target  uint32 // JA/JLA word index; BRK/SVC code
}

// Decode unpacks an instruction word. Unknown opcodes and nonzero bits in
// fields an operation does not use decode to Op INVALID, so truncated or
// damaged words can never alias a real instruction.
func Decode(w uint32) Instr {
	op := Op(w >> 26)
	a := uint8(w >> 21 & 31)
	b := uint8(w >> 16 & 31)
	c := uint8(w >> 11 & 31)
	simm := int32(int16(w))
	zimm := int32(w & 0xFFFF)
	switch {
	case op.IsRType():
		if w&0x7FF != 0 {
			return Instr{}
		}
		switch op {
		case MVH:
			if b != 0 || c != 0 {
				return Instr{}
			}
		case CMP:
			if a != 0 {
				return Instr{}
			}
		}
		return Instr{Op: op, A: a, B: b, C: c}
	case op.IsIType():
		in := Instr{Op: op, A: a, B: b}
		switch op {
		case ANDI, IORI, XORI:
			in.Imm = zimm
		case MVHI:
			if b != 0 {
				return Instr{}
			}
			in.Imm = zimm
		case LSLI, LSRI, ASRI:
			if zimm&^31 != 0 {
				return Instr{}
			}
			in.Imm = zimm
		case CMPI:
			if a != 0 {
				return Instr{}
			}
			in.Imm = simm
		default:
			in.Imm = simm
		}
		return in
	case op.IsLoad() || op.IsStore():
		return Instr{Op: op, A: a, B: b, Imm: simm}
	case op.IsBranch():
		if w>>16&0x3FF != 0 {
			return Instr{}
		}
		return Instr{Op: op, Imm: simm}
	case op == JA || op == JLA:
		return Instr{Op: op, Target: w & 0x3FFFFFF}
	case op == JR:
		if w&0x03E0FFFF != 0 {
			return Instr{}
		}
		return Instr{Op: op, B: b}
	case op == JLR:
		if w&0x0000FFFF != 0 || c != 0 {
			return Instr{}
		}
		return Instr{Op: op, A: a, B: b}
	case op == BRK || op == SVC:
		if w>>20&0x3F != 0 {
			return Instr{}
		}
		return Instr{Op: op, Target: w & 0xFFFFF}
	}
	return Instr{}
}

// Encoders; all panic on out-of-range fields, serving the lowerer and the
// assembler.

// EncR encodes a := b op c (use a=0 for CMP, b=c=0 for MVH).
func EncR(op Op, a, b, c uint8) uint32 {
	if !op.IsRType() {
		panic("ob0: EncR bad op " + op.String())
	}
	return uint32(op)<<26 | uint32(a&31)<<21 | uint32(b&31)<<16 | uint32(c&31)<<11
}

// EncI encodes a := b op imm (a=0 for CMPI, b=0 for MVHI).
func EncI(op Op, a, b uint8, imm int32) uint32 {
	if !op.IsIType() {
		panic("ob0: EncI bad op " + op.String())
	}
	if f := immField(op); int64(imm) < f.Lo || int64(imm) > f.Hi {
		panic(fmt.Sprintf("ob0: %s immediate %d out of range", op, imm))
	}
	return uint32(op)<<26 | uint32(a&31)<<21 | uint32(b&31)<<16 | uint32(uint16(imm))
}

// immField is the range of an I-type opcode's immediate: the logical
// operations and MVHI zero-extend 16 bits, the shifts take 5, the rest
// sign-extend 16.
func immField(op Op) backend.Field {
	switch op {
	case ANDI, IORI, XORI, MVHI:
		return backend.Unsigned16
	case LSLI, LSRI, ASRI:
		return backend.Shift5
	}
	return backend.Signed16
}

// EncM encodes a load or store of register a at R[b]+off.
func EncM(op Op, a, b uint8, off int32) uint32 {
	if !op.IsLoad() && !op.IsStore() {
		panic("ob0: EncM bad op " + op.String())
	}
	if off < -32768 || off > 32767 {
		panic("ob0: EncM offset out of range")
	}
	return uint32(op)<<26 | uint32(a&31)<<21 | uint32(b&31)<<16 | uint32(uint16(off))
}

// EncBr encodes a flag branch with a signed word displacement relative to
// the next instruction.
func EncBr(op Op, disp int32) uint32 {
	if !op.IsBranch() {
		panic("ob0: EncBr bad op " + op.String())
	}
	if disp < -32768 || disp > 32767 {
		panic("ob0: branch displacement out of range")
	}
	return uint32(op)<<26 | uint32(uint16(disp))
}

// EncJ encodes JA or JLA to an absolute word index.
func EncJ(op Op, target uint32) uint32 {
	if op != JA && op != JLA {
		panic("ob0: EncJ bad op " + op.String())
	}
	if target > 0x3FFFFFF {
		panic("ob0: jump target out of range")
	}
	return uint32(op)<<26 | target
}

// EncJR encodes a register jump to the byte address in R[b].
func EncJR(b uint8) uint32 { return uint32(JR)<<26 | uint32(b&31)<<16 }

// EncJLR encodes jlr a, b (link in a, target byte address in b).
func EncJLR(a, b uint8) uint32 {
	return uint32(JLR)<<26 | uint32(a&31)<<21 | uint32(b&31)<<16
}

// EncBrk encodes BRK with a 20-bit code.
func EncBrk(code uint32) uint32 { return uint32(BRK)<<26 | code&0xFFFFF }

// EncSvc encodes SVC with a 20-bit code.
func EncSvc(code uint32) uint32 { return uint32(SVC)<<26 | code&0xFFFFF }

// Nop is the canonical ob0 no-op (lsli $0, $0, 0).
var Nop = EncI(LSLI, 0, 0, 0)
