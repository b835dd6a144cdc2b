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

	skipBP bool
}

// NewSim creates an ob0 simulator over the given code image with memBytes
// bytes of data memory.
func NewSim(code []uint32, memBytes int) *Sim {
	return &Sim{CPU: backend.CPU{Code: code, Mem: make([]byte, memBytes)}}
}

// ResumeAt clears the stop condition and continues execution at the given
// word index on the next Run.
func (s *Sim) ResumeAt(pc uint32) {
	s.PC = pc
	s.Stopped = false
	s.BreakCode = 0
	s.Trap = backend.TrapNone
	s.BPHit = false
	s.skipBP = true
}

func (s *Sim) trap(code int) {
	s.Trap = code
	s.TrapPC = s.PC
	s.Stopped = true
}

// Run executes instructions until a BRK, a trap, or the instruction budget
// is exhausted (0 means unlimited). It returns an error only on runaway
// execution past the budget.
func (s *Sim) Run(maxInstrs int64) error {
	start := s.Instrs
	for !s.Stopped {
		s.step()
		if maxInstrs > 0 && s.Instrs-start >= maxInstrs {
			return fmt.Errorf("ob0: exceeded %d instructions at PC=%d", maxInstrs, s.PC)
		}
	}
	return nil
}

func (s *Sim) step() {
	pc := s.PC
	if s.Breakpoints != nil && s.Breakpoints[pc] && !s.skipBP {
		s.BPHit = true
		s.Stopped = true
		return
	}
	s.skipBP = false
	if int(pc) >= len(s.Code) {
		s.trap(backend.TrapBadInstr)
		return
	}
	in := Decode(s.Code[pc])
	s.Cycles++
	s.Instrs++
	if s.OnInstr != nil {
		s.OnInstr(pc)
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
			s.trap(backend.TrapOverflow)
			return
		}
		R[in.A] = sum
	case SUB:
		R[in.A] = R[in.B] - R[in.C]
	case SUBT:
		a, b := R[in.B], R[in.C]
		diff := a - b
		if (a^b)&(a^diff)&0x80000000 != 0 {
			s.trap(backend.TrapOverflow)
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
		R[in.A] = b2u(int32(R[in.B]) < int32(R[in.C]))
	case SLTU:
		R[in.A] = b2u(R[in.B] < R[in.C])
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
			s.trap(backend.TrapOverflow)
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
		R[in.A] = b2u(int32(R[in.B]) < in.Imm)
	case SLTIU:
		R[in.A] = b2u(R[in.B] < uint32(in.Imm))
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
	case LDB, LDBU, LDH, LDHU, LDW:
		if !s.load(in) {
			return
		}
	case STB, STH, STW:
		if !s.store(in) {
			return
		}
	case BEQ:
		if s.FlagZ {
			npc = s.branchTarget(in)
		}
	case BNE:
		if !s.FlagZ {
			npc = s.branchTarget(in)
		}
	case BLT:
		if s.FlagN != s.FlagV {
			npc = s.branchTarget(in)
		}
	case BGE:
		if s.FlagN == s.FlagV {
			npc = s.branchTarget(in)
		}
	case BLE:
		if s.FlagZ || s.FlagN != s.FlagV {
			npc = s.branchTarget(in)
		}
	case BGT:
		if !s.FlagZ && s.FlagN == s.FlagV {
			npc = s.branchTarget(in)
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
		s.trap(backend.TrapBadInstr)
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

func (s *Sim) branchTarget(in Instr) uint32 {
	s.Cycles++ // taken-branch refetch
	return s.PC + 1 + uint32(in.Imm)
}

func (s *Sim) load(in Instr) bool {
	addr := s.Reg[in.B] + uint32(in.Imm)
	var v uint32
	switch in.Op {
	case LDB, LDBU:
		if int(addr) >= len(s.Mem) {
			s.trap(backend.TrapAddress)
			return false
		}
		v = uint32(s.Mem[addr])
		if in.Op == LDB {
			v = uint32(int32(int8(v)))
		}
	case LDH, LDHU:
		if addr&1 != 0 || int(addr)+1 >= len(s.Mem) {
			s.trap(backend.TrapAddress)
			return false
		}
		v = uint32(s.Mem[addr])<<8 | uint32(s.Mem[addr+1])
		if in.Op == LDH {
			v = uint32(int32(int16(v)))
		}
	case LDW:
		// The code window maps the code space read-only into data
		// addresses, same base as every backend (translated CASE tables
		// live in the code stream).
		if addr >= codeWindow {
			idx := (addr - codeWindow) >> 2
			if addr&3 != 0 || int(idx) >= len(s.Code) {
				s.trap(backend.TrapAddress)
				return false
			}
			s.Reg[in.A] = s.Code[idx]
			s.Cycles++
			return true
		}
		if addr&3 != 0 || int(addr)+3 >= len(s.Mem) {
			s.trap(backend.TrapAddress)
			return false
		}
		v = uint32(s.Mem[addr])<<24 | uint32(s.Mem[addr+1])<<16 |
			uint32(s.Mem[addr+2])<<8 | uint32(s.Mem[addr+3])
	}
	s.Reg[in.A] = v
	s.Cycles++
	return true
}

func (s *Sim) store(in Instr) bool {
	addr := s.Reg[in.B] + uint32(in.Imm)
	if s.ProtectedHi > s.ProtectedLo && addr >= s.ProtectedLo && addr < s.ProtectedHi {
		s.trap(backend.TrapProtected)
		return false
	}
	v := s.Reg[in.A]
	switch in.Op {
	case STB:
		if int(addr) >= len(s.Mem) {
			s.trap(backend.TrapAddress)
			return false
		}
		s.Mem[addr] = byte(v)
		if s.StoreTrace != nil {
			// Report the containing halfword so byte stores compare
			// against the interpreter's word-level trace.
			ha := addr &^ 1
			s.StoreTrace(ha, uint16(s.Mem[ha])<<8|uint16(s.Mem[ha+1]))
		}
	case STH:
		if addr&1 != 0 || int(addr)+1 >= len(s.Mem) {
			s.trap(backend.TrapAddress)
			return false
		}
		s.Mem[addr] = byte(v >> 8)
		s.Mem[addr+1] = byte(v)
		if s.StoreTrace != nil {
			s.StoreTrace(addr, uint16(v))
		}
	case STW:
		if addr&3 != 0 || int(addr)+3 >= len(s.Mem) {
			s.trap(backend.TrapAddress)
			return false
		}
		s.Mem[addr] = byte(v >> 24)
		s.Mem[addr+1] = byte(v >> 16)
		s.Mem[addr+2] = byte(v >> 8)
		s.Mem[addr+3] = byte(v)
	}
	s.Dirty.MarkByte(addr)
	s.Cycles++
	return true
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
