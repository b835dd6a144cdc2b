package risc

import (
	"fmt"

	"tnsr/internal/backend"
)

// Trap codes raised by RISC execution. The numbering is the cross-backend
// contract defined next to backend.CPU; aliased here for convenience.
const (
	TrapNone      = backend.TrapNone
	TrapOverflow  = backend.TrapOverflow // ADD/ADDI/SUB signed overflow
	TrapAddress   = backend.TrapAddress  // unaligned or out-of-range access
	TrapBadInstr  = backend.TrapBadInstr
	TrapDivZero   = backend.TrapDivZero   // raised by millicode via BREAK, not by DIV itself
	TrapProtected = backend.TrapProtected // store into the fenced runtime-table region
)

// CacheConfig describes one direct-mapped cache. A zero SizeBytes disables
// the cache (all accesses hit).
type CacheConfig struct {
	SizeBytes int
	LineBytes int
}

// Config holds the simulator's timing parameters. The defaults (see
// DefaultConfig) model the Cyclone/R: an R3000 with one branch delay slot,
// interlocked loads, 12-cycle multiply, 35-cycle divide, and 256 KB each of
// instruction and data cache.
type Config struct {
	ICache      CacheConfig
	DCache      CacheConfig
	MissPenalty int
	MulLatency  int
	DivLatency  int
}

// DefaultConfig returns the Cyclone/R timing model.
func DefaultConfig() Config {
	return Config{
		ICache:      CacheConfig{SizeBytes: 256 << 10, LineBytes: 16},
		DCache:      CacheConfig{SizeBytes: 256 << 10, LineBytes: 16},
		MissPenalty: 12,
		MulLatency:  12,
		DivLatency:  35,
	}
}

type cache struct {
	tags      []uint32
	valid     []bool
	lineShift uint
	mask      uint32
}

func newCache(c CacheConfig) *cache {
	if c.SizeBytes == 0 {
		return nil
	}
	lines := c.SizeBytes / c.LineBytes
	sh := uint(0)
	for 1<<sh < c.LineBytes {
		sh++
	}
	return &cache{
		tags:      make([]uint32, lines),
		valid:     make([]bool, lines),
		lineShift: sh,
		mask:      uint32(lines - 1),
	}
}

// access returns true on a hit.
func (c *cache) access(addr uint32) bool {
	line := addr >> c.lineShift
	idx := line & c.mask
	if c.valid[idx] && c.tags[idx] == line {
		return true
	}
	c.valid[idx] = true
	c.tags[idx] = line
	return false
}

// CodeWindowBase maps the code space read-only into the data address
// space: a LW at CodeWindowBase+4i reads code word i (translated CASE
// tables are stored in the code stream and read through this window).
const CodeWindowBase = 0x01000000

// Sim is the RISC processor simulator. Code is held separately from data
// memory; PC values are word indexes into Code, and register-held code
// addresses (for JR/JALR) are byte addresses, i.e. 4 times the word index.
type Sim struct {
	// CPU is the backend-shared simulator state (code, memory, the 32
	// registers, PC, stop/breakpoint/observation protocol); embedding it
	// keeps the historical s.Reg / s.PC / s.Stopped spellings working
	// and satisfies the backend.Sim interface's Core method.
	backend.CPU

	HI uint32
	LO uint32

	LoadStalls   int64
	MDStalls     int64
	ICacheMisses int64
	DCacheMisses int64

	cfg     Config
	icache  *cache
	dcache  *cache
	skipBP  bool
	npc     uint32
	loadReg int   // register written by the immediately preceding load
	mdReady int64 // cycle at which HI/LO become available
	uses    []uint8
}

// NewSim creates a simulator with the given code, a data memory of memBytes
// bytes, and timing config.
func NewSim(code []uint32, memBytes int, cfg Config) *Sim {
	return &Sim{
		CPU: backend.CPU{
			Code: code,
			Mem:  make([]byte, memBytes),
		},
		cfg:     cfg,
		icache:  newCache(cfg.ICache),
		dcache:  newCache(cfg.DCache),
		loadReg: -1,
	}
}

// ResumeAt clears the stop condition and continues execution at the given
// word index on the next Run.
func (s *Sim) ResumeAt(pc uint32) {
	s.PC = pc
	s.npc = pc + 1
	s.Stopped = false
	s.BreakCode = 0
	s.Trap = TrapNone
	s.loadReg = -1
	s.BPHit = false
	s.skipBP = true
}

func (s *Sim) trap(code int) {
	s.Trap = code
	s.TrapPC = s.PC
	s.Stopped = true
}

// Run executes instructions until a BREAK, a trap, or the cycle budget is
// exhausted (0 means unlimited). It returns an error only on runaway
// execution past the budget.
func (s *Sim) Run(maxInstrs int64) error {
	if s.npc == 0 {
		s.npc = s.PC + 1
	}
	start := s.Instrs
	for !s.Stopped {
		s.step()
		if maxInstrs > 0 && s.Instrs-start >= maxInstrs {
			return fmt.Errorf("risc: exceeded %d instructions at PC=%d", maxInstrs, s.PC)
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
		s.trap(TrapBadInstr)
		return
	}
	if s.icache != nil && !s.icache.access(pc<<2) {
		s.ICacheMisses++
		s.Cycles += int64(s.cfg.MissPenalty)
	}
	w := s.Code[pc]
	in := Decode(w)
	s.Cycles++
	s.Instrs++
	if s.OnInstr != nil {
		s.OnInstr(pc)
	}

	// Load-use interlock: one stall cycle if this instruction reads the
	// register the previous instruction loaded.
	if s.loadReg >= 0 {
		s.uses = in.Uses(s.uses[:0])
		for _, u := range s.uses {
			if int(u) == s.loadReg {
				s.Cycles++
				s.LoadStalls++
				break
			}
		}
		s.loadReg = -1
	}

	nextNPC := s.npc + 1
	R := &s.Reg
	switch in.Op {
	case SLL:
		R[in.Rd] = R[in.Rt] << in.Shamt
	case SRL:
		R[in.Rd] = R[in.Rt] >> in.Shamt
	case SRA:
		R[in.Rd] = uint32(int32(R[in.Rt]) >> in.Shamt)
	case SLLV:
		R[in.Rd] = R[in.Rt] << (R[in.Rs] & 31)
	case SRLV:
		R[in.Rd] = R[in.Rt] >> (R[in.Rs] & 31)
	case SRAV:
		R[in.Rd] = uint32(int32(R[in.Rt]) >> (R[in.Rs] & 31))
	case ADD:
		a, b := R[in.Rs], R[in.Rt]
		sum := a + b
		if (a^sum)&(b^sum)&0x80000000 != 0 {
			s.trap(TrapOverflow)
			return
		}
		R[in.Rd] = sum
	case ADDU:
		R[in.Rd] = R[in.Rs] + R[in.Rt]
	case SUB:
		a, b := R[in.Rs], R[in.Rt]
		diff := a - b
		if (a^b)&(a^diff)&0x80000000 != 0 {
			s.trap(TrapOverflow)
			return
		}
		R[in.Rd] = diff
	case SUBU:
		R[in.Rd] = R[in.Rs] - R[in.Rt]
	case AND:
		R[in.Rd] = R[in.Rs] & R[in.Rt]
	case OR:
		R[in.Rd] = R[in.Rs] | R[in.Rt]
	case XOR:
		R[in.Rd] = R[in.Rs] ^ R[in.Rt]
	case NOR:
		R[in.Rd] = ^(R[in.Rs] | R[in.Rt])
	case SLT:
		R[in.Rd] = b2u(int32(R[in.Rs]) < int32(R[in.Rt]))
	case SLTU:
		R[in.Rd] = b2u(R[in.Rs] < R[in.Rt])
	case ADDI:
		a, b := R[in.Rs], uint32(in.Imm)
		sum := a + b
		if (a^sum)&(b^sum)&0x80000000 != 0 {
			s.trap(TrapOverflow)
			return
		}
		R[in.Rt] = sum
	case ADDIU:
		R[in.Rt] = R[in.Rs] + uint32(in.Imm)
	case SLTI:
		R[in.Rt] = b2u(int32(R[in.Rs]) < in.Imm)
	case SLTIU:
		R[in.Rt] = b2u(R[in.Rs] < uint32(in.Imm))
	case ANDI:
		R[in.Rt] = R[in.Rs] & uint32(in.Imm)
	case ORI:
		R[in.Rt] = R[in.Rs] | uint32(in.Imm)
	case XORI:
		R[in.Rt] = R[in.Rs] ^ uint32(in.Imm)
	case LUI:
		R[in.Rt] = uint32(in.Imm) << 16
	case LB, LH, LW, LBU, LHU:
		if !s.load(in) {
			return
		}
	case SB, SH, SW:
		if !s.storeOp(in) {
			return
		}
	case BEQ:
		if R[in.Rs] == R[in.Rt] {
			nextNPC = s.branchTarget(in)
		}
	case BNE:
		if R[in.Rs] != R[in.Rt] {
			nextNPC = s.branchTarget(in)
		}
	case BLEZ:
		if int32(R[in.Rs]) <= 0 {
			nextNPC = s.branchTarget(in)
		}
	case BGTZ:
		if int32(R[in.Rs]) > 0 {
			nextNPC = s.branchTarget(in)
		}
	case BLTZ:
		if int32(R[in.Rs]) < 0 {
			nextNPC = s.branchTarget(in)
		}
	case BGEZ:
		if int32(R[in.Rs]) >= 0 {
			nextNPC = s.branchTarget(in)
		}
	case J:
		nextNPC = in.Target
	case JAL:
		R[RegRA] = (s.npc + 1) << 2
		nextNPC = in.Target
	case JR:
		nextNPC = R[in.Rs] >> 2
	case JALR:
		R[in.Rd] = (s.npc + 1) << 2
		nextNPC = R[in.Rs] >> 2
	case MULT:
		p := int64(int32(R[in.Rs])) * int64(int32(R[in.Rt]))
		s.LO = uint32(p)
		s.HI = uint32(p >> 32)
		s.mdReady = s.Cycles + int64(s.cfg.MulLatency)
	case MULTU:
		p := uint64(R[in.Rs]) * uint64(R[in.Rt])
		s.LO = uint32(p)
		s.HI = uint32(p >> 32)
		s.mdReady = s.Cycles + int64(s.cfg.MulLatency)
	case DIV:
		a, b := int32(R[in.Rs]), int32(R[in.Rt])
		if b != 0 && !(a == -2147483648 && b == -1) {
			s.LO = uint32(a / b)
			s.HI = uint32(a % b)
		} else if b != 0 {
			s.LO = uint32(a)
			s.HI = 0
		}
		s.mdReady = s.Cycles + int64(s.cfg.DivLatency)
	case DIVU:
		a, b := R[in.Rs], R[in.Rt]
		if b != 0 {
			s.LO = a / b
			s.HI = a % b
		}
		s.mdReady = s.Cycles + int64(s.cfg.DivLatency)
	case MFHI:
		s.mdStall()
		R[in.Rd] = s.HI
	case MFLO:
		s.mdStall()
		R[in.Rd] = s.LO
	case SYSCALL:
		if s.OnSyscall != nil {
			s.OnSyscall(&s.CPU, in.Target)
		}
	case BREAK:
		s.BreakCode = in.Target
		s.Stopped = true
		return // PC stays at the BREAK for the host to inspect
	default:
		s.trap(TrapBadInstr)
		return
	}
	R[0] = 0
	s.PC = s.npc
	s.npc = nextNPC
}

func (s *Sim) mdStall() {
	if s.Cycles < s.mdReady {
		s.MDStalls += s.mdReady - s.Cycles
		s.Cycles = s.mdReady
	}
}

func (s *Sim) branchTarget(in Instr) uint32 {
	// Target is relative to the instruction after the branch, whose word
	// index is s.npc (the delay slot) plus... in MIPS terms the target is
	// delay-slot address + 4*imm, i.e. (branch word index + 1) + imm.
	return s.PC + 1 + uint32(in.Imm)
}

func (s *Sim) dAccess(addr uint32) {
	if s.dcache != nil && !s.dcache.access(addr) {
		s.DCacheMisses++
		s.Cycles += int64(s.cfg.MissPenalty)
	}
}

func (s *Sim) load(in Instr) bool {
	addr := s.Reg[in.Rs] + uint32(in.Imm)
	var v uint32
	switch in.Op {
	case LB, LBU:
		if int(addr) >= len(s.Mem) {
			s.trap(TrapAddress)
			return false
		}
		v = uint32(s.Mem[addr])
		if in.Op == LB {
			v = uint32(int32(int8(v)))
		}
	case LH, LHU:
		if addr&1 != 0 || int(addr)+1 >= len(s.Mem) {
			s.trap(TrapAddress)
			return false
		}
		v = uint32(s.Mem[addr])<<8 | uint32(s.Mem[addr+1])
		if in.Op == LH {
			v = uint32(int32(int16(v)))
		}
	case LW:
		if addr >= CodeWindowBase {
			idx := (addr - CodeWindowBase) >> 2
			if addr&3 != 0 || int(idx) >= len(s.Code) {
				s.trap(TrapAddress)
				return false
			}
			v = s.Code[idx]
			s.Reg[in.Rt] = v
			s.loadReg = int(in.Rt)
			return true
		}
		if addr&3 != 0 || int(addr)+3 >= len(s.Mem) {
			s.trap(TrapAddress)
			return false
		}
		v = uint32(s.Mem[addr])<<24 | uint32(s.Mem[addr+1])<<16 |
			uint32(s.Mem[addr+2])<<8 | uint32(s.Mem[addr+3])
	}
	s.dAccess(addr)
	s.Reg[in.Rt] = v
	s.loadReg = int(in.Rt)
	return true
}

func (s *Sim) storeOp(in Instr) bool {
	addr := s.Reg[in.Rs] + uint32(in.Imm)
	if s.ProtectedHi > s.ProtectedLo && addr >= s.ProtectedLo && addr < s.ProtectedHi {
		s.trap(TrapProtected)
		return false
	}
	v := s.Reg[in.Rt]
	switch in.Op {
	case SB:
		if int(addr) >= len(s.Mem) {
			s.trap(TrapAddress)
			return false
		}
		s.Mem[addr] = byte(v)
		if s.StoreTrace != nil {
			// Report the containing halfword so byte stores compare
			// against the interpreter's word-level trace.
			ha := addr &^ 1
			s.StoreTrace(ha, uint16(s.Mem[ha])<<8|uint16(s.Mem[ha+1]))
		}
	case SH:
		if addr&1 != 0 || int(addr)+1 >= len(s.Mem) {
			s.trap(TrapAddress)
			return false
		}
		s.Mem[addr] = byte(v >> 8)
		s.Mem[addr+1] = byte(v)
		if s.StoreTrace != nil {
			s.StoreTrace(addr, uint16(v))
		}
	case SW:
		if addr&3 != 0 || int(addr)+3 >= len(s.Mem) {
			s.trap(TrapAddress)
			return false
		}
		s.Mem[addr] = byte(v >> 24)
		s.Mem[addr+1] = byte(v >> 16)
		s.Mem[addr+2] = byte(v >> 8)
		s.Mem[addr+3] = byte(v)
	}
	s.Dirty.MarkByte(addr)
	s.dAccess(addr)
	return true
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
