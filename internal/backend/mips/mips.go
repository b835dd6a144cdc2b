// Package mips is the default TNS/R backend: the MIPS-R3000-like target of
// Andrews & Sand 1992, wrapping the risc encoder/simulator and the
// millicode package's hand-coded routines. The virtual instruction stream
// is MIPS-shaped by construction, so encoding is 1:1 — every virtual
// instruction becomes exactly one machine word and instruction indexes are
// word indexes — which is what keeps this backend byte-identical to the
// pre-seam translator (see TestMIPSBackendByteStable).
package mips

import (
	"fmt"

	"tnsr/internal/backend"
	"tnsr/internal/millicode"
	"tnsr/internal/risc"
)

// BackendID is the codefile identity byte of the MIPS target. Zero, so
// acceleration sections written before the backend tag existed read as
// MIPS — which is what they are.
const BackendID uint8 = 0

// B implements backend.Backend for the R3000. Cfg holds the simulator's
// timing model; it never affects encoding.
type B struct {
	Cfg risc.Config
}

// New returns a MIPS backend whose simulators use the given timing config.
func New(cfg risc.Config) *B { return &B{Cfg: cfg} }

// Default is the registry instance, with the Cyclone/R timing model.
var Default = New(risc.DefaultConfig())

func init() { backend.Register(Default) }

func (b *B) ID() uint8                  { return BackendID }
func (b *B) Name() string               { return "mips" }
func (b *B) Traits() backend.Traits     { return backend.Traits{DelaySlots: true} }
func (b *B) Disasm(pc, w uint32) string { return risc.Disassemble(pc, w) }

// Millicode returns the assembled MIPS millicode and its entry labels.
func (b *B) Millicode() (code []uint32, labels map[string]uint32) {
	return millicode.Build()
}

// Load decodes a code image once for the R3000 simulator under this
// backend's timing config.
func (b *B) Load(code *backend.CodeImage) backend.Program {
	return risc.NewProgram(code, b.Cfg)
}

// Encode lowers the virtual stream 1:1 into MIPS words.
func (b *B) Encode(ins []backend.Inst, labelAt func(backend.Label) (int32, error),
	base uint32) (backend.Encoded, error) {
	// Identity layout: instruction index == word index, so a label's word
	// position is its instruction index.
	pos := func(l backend.Label) (uint32, error) {
		p, err := labelAt(l)
		if err != nil {
			return 0, err
		}
		return uint32(p), nil
	}
	code := make([]uint32, len(ins))
	posMap := make([]int32, len(ins)+1)
	for i, r := range ins {
		w, err := encodeOne(r, uint32(i), base, pos)
		if err != nil {
			return backend.Encoded{}, fmt.Errorf("mips: at RISC %d (tns %d): %w", i, r.TNSAddr, err)
		}
		code[i] = w
		posMap[i] = int32(i)
	}
	posMap[len(ins)] = int32(len(ins))
	return backend.Encoded{Code: code, Pos: posMap}, nil
}

func encodeOne(r backend.Inst, idx, base uint32,
	pos func(backend.Label) (uint32, error)) (uint32, error) {
	if r.IsWord {
		if r.JLbl != backend.NoLabel {
			p, err := pos(r.JLbl)
			if err != nil {
				return 0, err
			}
			return (base + p) << 2, nil // absolute RISC byte address
		}
		return uint32(r.Imm), nil
	}
	if r.HasLA {
		p, err := pos(r.LALbl)
		if err != nil {
			return 0, err
		}
		v := uint32(backend.CodeWindow) + ((base + p) << 2)
		if r.LAHi {
			return risc.EncImm(risc.LUI, r.Rt, 0, int32(v>>16)), nil
		}
		return risc.EncImm(risc.ORI, r.Rt, r.Rs, int32(v&0xFFFF)), nil
	}
	switch r.Op {
	case risc.SLL, risc.SRL, risc.SRA:
		return risc.EncShift(r.Op, r.Rd, r.Rt, r.Shamt), nil
	case risc.SLLV, risc.SRLV, risc.SRAV:
		// Encoded as rd, value(rt), amount(rs).
		return risc.EncALU(r.Op, r.Rd, r.Rs, r.Rt), nil
	case risc.ADD, risc.ADDU, risc.SUB, risc.SUBU, risc.AND, risc.OR,
		risc.XOR, risc.NOR, risc.SLT, risc.SLTU:
		return risc.EncALU(r.Op, r.Rd, r.Rs, r.Rt), nil
	case risc.ADDI, risc.ADDIU, risc.SLTI, risc.SLTIU, risc.ANDI,
		risc.ORI, risc.XORI, risc.LUI:
		return risc.EncImm(r.Op, r.Rt, r.Rs, r.Imm), nil
	case risc.LB, risc.LH, risc.LW, risc.LBU, risc.LHU, risc.SB, risc.SH,
		risc.SW:
		return risc.EncMem(r.Op, r.Rt, r.Rs, r.Imm), nil
	case risc.BEQ, risc.BNE, risc.BLEZ, risc.BGTZ, risc.BLTZ, risc.BGEZ:
		p, err := pos(r.Lbl)
		if err != nil {
			return 0, err
		}
		disp := int32(p) - int32(idx) - 1
		return risc.EncBranch(r.Op, r.Rs, r.Rt, disp), nil
	case risc.J, risc.JAL:
		if r.JLbl != backend.NoLabel {
			p, err := pos(r.JLbl)
			if err != nil {
				return 0, err
			}
			return risc.EncJ(r.Op, base+p), nil
		}
		return risc.EncJ(r.Op, r.JTarget), nil
	case risc.JR:
		return risc.EncJR(r.Rs), nil
	case risc.JALR:
		return risc.EncJALR(r.Rd, r.Rs), nil
	case risc.MULT, risc.MULTU, risc.DIV, risc.DIVU:
		return risc.EncMulDiv(r.Op, r.Rs, r.Rt), nil
	case risc.MFHI, risc.MFLO:
		return risc.EncMulDiv(r.Op, r.Rd, 0), nil
	case risc.BREAK:
		return risc.EncBreak(r.Code), nil
	case risc.SYSCALL:
		return risc.EncSyscall(r.Code), nil
	}
	return 0, fmt.Errorf("unencodable op %s", r.Op)
}
