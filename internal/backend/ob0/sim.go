package ob0

import (
	"fmt"

	"tnsr/internal/backend"
)

// Sim is the ob0 processor simulator. It embeds the backend-shared CPU
// (registers, memory, stop/breakpoint/observation protocol) and adds the
// ob0-private architectural state: the N/Z/V condition flags and the H
// special register.
//
// The timing model is a simple single-issue pipeline with no delay slots:
// one cycle per instruction, plus one for a taken branch (refetch), one
// for a load or store (memory port), three for a multiply and twenty for
// a divide. There are no modelled caches — ob0 exists to prove the
// backend seam, not to re-run the paper's R3000 timing study.
type Sim struct {
	backend.CPU

	// H holds the high half of a multiply or the remainder of a divide
	// (read by MVH).
	H uint32

	// FlagZ/FlagN/FlagV are the condition flags, written only by CMP and
	// CMPI, tested by the conditional branches.
	FlagZ, FlagN, FlagV bool

	ins  backend.Decoded[Instr] // the program's, shared read-only
	code *backend.CodeImage
}

// Program is a code image decoded once by the strict ob0 decoder: a
// damaged word becomes an INVALID instruction that traps when it
// executes. It is immutable and shared by every simulator built from it.
type Program struct {
	code *backend.CodeImage
	ins  backend.Decoded[Instr]
}

// NewProgram decodes the populated words of code once.
func NewProgram(code *backend.CodeImage) *Program {
	return &Program{code: code, ins: backend.DecodeCode(code, Decode)}
}

// Code returns the raw words the program was decoded from.
func (p *Program) Code() *backend.CodeImage { return p.code }

// NewSim constructs a simulator over the program (backend.Program).
func (p *Program) NewSim(mem []byte) backend.Sim { return NewSim(p, mem) }

// NewSim creates an ob0 simulator over a decoded program with data memory
// mem.
func NewSim(p *Program, mem []byte) *Sim {
	return &Sim{CPU: backend.CPU{Mem: mem}, ins: p.ins, code: p.code}
}

// Run executes instructions until a BRK, a trap, or the instruction budget
// is exhausted (0 means unlimited). It returns an error only on runaway
// execution past the budget.
func (s *Sim) Run(maxInstrs int64) error {
	start := s.Instrs
	for !s.Stopped {
		if maxInstrs > 0 && s.Instrs-start >= maxInstrs {
			return fmt.Errorf("ob0: exceeded %d instructions at PC=%d", maxInstrs, s.PC)
		}
		s.step()
	}
	return nil
}

func (s *Sim) step() {
	pc := s.PC
	if s.Breakpoints != nil && s.Breakpoints[pc] && !s.SkipBP {
		s.BPHit = true
		s.Stopped = true
		return
	}
	s.SkipBP = false
	if int(pc) >= s.ins.Len() {
		s.RaiseTrap(backend.TrapBadInstr)
		return
	}
	s.Cycles++
	s.Instrs++
	// The test-only hook runs before the fetch, so nothing fetched is
	// live across its call.
	if s.OnInstr != nil {
		s.OnInstr(pc)
	}
	in, slot := s.ins.At(pc)
	if s.Counts != nil {
		s.Counts[slot]++
	}

	npc := pc + 1
	R := &s.Reg
	switch in.Op {
	case ADD:
		R[in.A] = R[in.B] + R[in.C]
	case ADDT:
		a, b := R[in.B], R[in.C]
		sum := a + b
		if (a^sum)&(b^sum)&0x80000000 != 0 {
			s.RaiseTrap(backend.TrapOverflow)
			return
		}
		R[in.A] = sum
	case SUB:
		R[in.A] = R[in.B] - R[in.C]
	case SUBT:
		a, b := R[in.B], R[in.C]
		diff := a - b
		if (a^b)&(a^diff)&0x80000000 != 0 {
			s.RaiseTrap(backend.TrapOverflow)
			return
		}
		R[in.A] = diff
	case AND:
		R[in.A] = R[in.B] & R[in.C]
	case IOR:
		R[in.A] = R[in.B] | R[in.C]
	case XOR:
		R[in.A] = R[in.B] ^ R[in.C]
	case NOR:
		R[in.A] = ^(R[in.B] | R[in.C])
	case LSL:
		R[in.A] = R[in.B] << (R[in.C] & 31)
	case LSR:
		R[in.A] = R[in.B] >> (R[in.C] & 31)
	case ASR:
		R[in.A] = uint32(int32(R[in.B]) >> (R[in.C] & 31))
	case SLT:
		R[in.A] = backend.B2U(int32(R[in.B]) < int32(R[in.C]))
	case SLTU:
		R[in.A] = backend.B2U(R[in.B] < R[in.C])
	case CMP:
		s.setFlags(R[in.B], R[in.C])
	case MUL:
		p := int64(int32(R[in.B])) * int64(int32(R[in.C]))
		R[in.A] = uint32(p)
		s.H = uint32(p >> 32)
		s.Cycles += 3
	case MULU:
		p := uint64(R[in.B]) * uint64(R[in.C])
		R[in.A] = uint32(p)
		s.H = uint32(p >> 32)
		s.Cycles += 3
	case DVQ:
		// Same quotient/remainder convention as the default target: divide
		// by zero and the INT_MIN/-1 overflow leave quotient/H as the
		// millicode's pre-division test expects (millicode raises the
		// TrapDivZero BREAK before dividing, so these cases are unreachable
		// from translated code; mirror the MIPS simulator anyway).
		a, b := int32(R[in.B]), int32(R[in.C])
		if b != 0 && !(a == -2147483648 && b == -1) {
			R[in.A] = uint32(a / b)
			s.H = uint32(a % b)
		} else if b != 0 {
			R[in.A] = uint32(a)
			s.H = 0
		}
		s.Cycles += 20
	case DVQU:
		a, b := R[in.B], R[in.C]
		if b != 0 {
			R[in.A] = a / b
			s.H = a % b
		}
		s.Cycles += 20
	case MVH:
		R[in.A] = s.H
	case ADDI:
		R[in.A] = R[in.B] + uint32(in.Imm)
	case ADTI:
		a, b := R[in.B], uint32(in.Imm)
		sum := a + b
		if (a^sum)&(b^sum)&0x80000000 != 0 {
			s.RaiseTrap(backend.TrapOverflow)
			return
		}
		R[in.A] = sum
	case ANDI:
		R[in.A] = R[in.B] & uint32(in.Imm)
	case IORI:
		R[in.A] = R[in.B] | uint32(in.Imm)
	case XORI:
		R[in.A] = R[in.B] ^ uint32(in.Imm)
	case SLTI:
		R[in.A] = backend.B2U(int32(R[in.B]) < in.Imm)
	case SLTIU:
		R[in.A] = backend.B2U(R[in.B] < uint32(in.Imm))
	case LSLI:
		R[in.A] = R[in.B] << uint32(in.Imm)
	case LSRI:
		R[in.A] = R[in.B] >> uint32(in.Imm)
	case ASRI:
		R[in.A] = uint32(int32(R[in.B]) >> uint32(in.Imm))
	case MVHI:
		R[in.A] = uint32(in.Imm) << 16
	case CMPI:
		s.setFlags(R[in.B], uint32(in.Imm))
	case LDB, LDBU:
		v, ok := s.LoadByte(R[in.B] + uint32(in.Imm))
		if !ok {
			return
		}
		if in.Op == LDB {
			v = uint32(int8(v))
		}
		R[in.A] = v
		s.Cycles++
	case LDH, LDHU:
		v, ok := s.LoadHalf(R[in.B] + uint32(in.Imm))
		if !ok {
			return
		}
		if in.Op == LDH {
			v = uint32(int16(v))
		}
		R[in.A] = v
		s.Cycles++
	case LDW:
		v, ok := s.LoadWord(R[in.B]+uint32(in.Imm), s.code)
		if !ok {
			return
		}
		R[in.A] = v
		s.Cycles++ // code window included
	case STB:
		if !s.StoreByte(R[in.B]+uint32(in.Imm), R[in.A]) {
			return
		}
		s.Cycles++
	case STH:
		if !s.StoreHalf(R[in.B]+uint32(in.Imm), R[in.A]) {
			return
		}
		s.Cycles++
	case STW:
		if !s.StoreWord(R[in.B]+uint32(in.Imm), R[in.A]) {
			return
		}
		s.Cycles++
	case BEQ:
		if s.FlagZ {
			npc = s.branchTarget(in.Imm)
		}
	case BNE:
		if !s.FlagZ {
			npc = s.branchTarget(in.Imm)
		}
	case BLT:
		if s.FlagN != s.FlagV {
			npc = s.branchTarget(in.Imm)
		}
	case BGE:
		if s.FlagN == s.FlagV {
			npc = s.branchTarget(in.Imm)
		}
	case BLE:
		if s.FlagZ || s.FlagN != s.FlagV {
			npc = s.branchTarget(in.Imm)
		}
	case BGT:
		if !s.FlagZ && s.FlagN == s.FlagV {
			npc = s.branchTarget(in.Imm)
		}
	case JA:
		npc = in.Target
		s.Cycles++
	case JLA:
		R[backend.RegRA] = (pc + 1) << 2
		npc = in.Target
		s.Cycles++
	case JR:
		npc = R[in.B] >> 2
		s.Cycles++
	case JLR:
		R[in.A] = (pc + 1) << 2
		npc = R[in.B] >> 2
		s.Cycles++
	case SVC:
		if s.OnSyscall != nil {
			s.OnSyscall(&s.CPU, in.Target)
		}
	case BRK:
		s.BreakCode = in.Target
		s.Stopped = true
		return // PC stays at the BRK for the host to inspect
	default:
		s.RaiseTrap(backend.TrapBadInstr)
		return
	}
	R[0] = 0
	s.PC = npc
}

// setFlags computes flags from the subtraction a - b: Z if equal, N if the
// 32-bit difference is negative, V if the signed subtraction overflowed.
// The branch conditions (e.g. BLT: N != V) then realise the signed
// comparisons exactly.
func (s *Sim) setFlags(a, b uint32) {
	d := a - b
	s.FlagZ = d == 0
	s.FlagN = d&0x80000000 != 0
	s.FlagV = (a^b)&(a^d)&0x80000000 != 0
}

func (s *Sim) branchTarget(imm int32) uint32 {
	s.Cycles++ // taken-branch refetch
	return s.PC + 1 + uint32(imm)
}
