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

// Program is a code image decoded once for the R3000 simulator under one
// timing configuration. Each instruction is stored with the mask of the
// general registers it reads, so the load-use interlock is one AND. A
// Program is immutable and shared by every simulator built from it.
type Program struct {
	code *backend.CodeImage
	ins  backend.Decoded[decoded]
	cfg  Config
}

// decoded is one instruction in the simulator's form.
type decoded struct {
	Instr
	uses uint32 // bit r set when the instruction reads general register r
}

// NewProgram decodes the populated words of code once.
func NewProgram(code *backend.CodeImage, cfg Config) *Program {
	var buf []uint8
	return &Program{code: code, cfg: cfg,
		ins: backend.DecodeCode(code, func(w uint32) decoded {
			in := Decode(w)
			d := decoded{Instr: in}
			buf = in.Uses(buf[:0])
			for _, u := range buf {
				d.uses |= 1 << u
			}
			return d
		})}
}

// Code returns the raw words the program was decoded from.
func (p *Program) Code() *backend.CodeImage { return p.code }

// NewSim constructs a simulator over the program (backend.Program).
func (p *Program) NewSim(mem []byte) backend.Sim { return NewSim(p, mem) }

// Sim is the RISC processor simulator. Code is held separately from data
// memory, decoded, in the shared Program; PC values are word indexes into
// the code space, and register-held code addresses (for JR/JALR) are byte
// addresses, i.e. 4 times the word index.
type Sim struct {
	// CPU is the backend-shared simulator state (memory, the 32
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

	ins      backend.Decoded[decoded] // the program's, shared read-only
	code     *backend.CodeImage
	cfg      Config
	icache   *cache
	dcache   *cache
	npc      uint32
	loadMask uint32 // bit of the register the immediately preceding load wrote
	mdReady  int64  // cycle at which HI/LO become available

	// The step writes the fields above on every instruction, and fleet
	// machines step concurrently: a cache line of padding keeps the next
	// heap object (often another machine's Sim, registers first) off the
	// line they end on. Without it, false sharing cost a 16-machine fleet
	// about 10% on 2 CPUs.
	_ [64]byte
}

// NewSim creates a simulator over a decoded program with data memory mem,
// timed by the program's config.
func NewSim(p *Program, mem []byte) *Sim {
	return &Sim{
		CPU:    backend.CPU{Mem: mem},
		ins:    p.ins,
		code:   p.code,
		cfg:    p.cfg,
		icache: newCache(p.cfg.ICache),
		dcache: newCache(p.cfg.DCache),
	}
}

// ResumeAt clears the stop condition and continues execution at the given
// word index on the next Run.
func (s *Sim) ResumeAt(pc uint32) {
	s.CPU.ResumeAt(pc)
	s.npc = pc + 1
	s.loadMask = 0
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
		if maxInstrs > 0 && s.Instrs-start >= maxInstrs {
			return fmt.Errorf("risc: exceeded %d instructions at PC=%d", maxInstrs, s.PC)
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
		s.RaiseTrap(TrapBadInstr)
		return
	}
	if s.icache != nil && !s.icache.access(pc<<2) {
		s.ICacheMisses++
		s.Cycles += int64(s.cfg.MissPenalty)
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

	// Load-use interlock: one stall cycle if this instruction reads the
	// register the previous instruction loaded.
	if s.loadMask != 0 {
		if in.uses&s.loadMask != 0 {
			s.Cycles++
			s.LoadStalls++
		}
		s.loadMask = 0
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
			s.RaiseTrap(TrapOverflow)
			return
		}
		R[in.Rd] = sum
	case ADDU:
		R[in.Rd] = R[in.Rs] + R[in.Rt]
	case SUB:
		a, b := R[in.Rs], R[in.Rt]
		diff := a - b
		if (a^b)&(a^diff)&0x80000000 != 0 {
			s.RaiseTrap(TrapOverflow)
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
		R[in.Rd] = backend.B2U(int32(R[in.Rs]) < int32(R[in.Rt]))
	case SLTU:
		R[in.Rd] = backend.B2U(R[in.Rs] < R[in.Rt])
	case ADDI:
		a, b := R[in.Rs], uint32(in.Imm)
		sum := a + b
		if (a^sum)&(b^sum)&0x80000000 != 0 {
			s.RaiseTrap(TrapOverflow)
			return
		}
		R[in.Rt] = sum
	case ADDIU:
		R[in.Rt] = R[in.Rs] + uint32(in.Imm)
	case SLTI:
		R[in.Rt] = backend.B2U(int32(R[in.Rs]) < in.Imm)
	case SLTIU:
		R[in.Rt] = backend.B2U(R[in.Rs] < uint32(in.Imm))
	case ANDI:
		R[in.Rt] = R[in.Rs] & uint32(in.Imm)
	case ORI:
		R[in.Rt] = R[in.Rs] | uint32(in.Imm)
	case XORI:
		R[in.Rt] = R[in.Rs] ^ uint32(in.Imm)
	case LUI:
		R[in.Rt] = uint32(in.Imm) << 16
	case LB, LBU:
		addr := R[in.Rs] + uint32(in.Imm)
		v, ok := s.LoadByte(addr)
		if !ok {
			return
		}
		if in.Op == LB {
			v = uint32(int8(v))
		}
		s.dAccess(addr)
		R[in.Rt] = v
		s.loadMask = 1 << in.Rt
	case LH, LHU:
		addr := R[in.Rs] + uint32(in.Imm)
		v, ok := s.LoadHalf(addr)
		if !ok {
			return
		}
		if in.Op == LH {
			v = uint32(int16(v))
		}
		s.dAccess(addr)
		R[in.Rt] = v
		s.loadMask = 1 << in.Rt
	case LW:
		addr := R[in.Rs] + uint32(in.Imm)
		v, ok := s.LoadWord(addr, s.code)
		if !ok {
			return
		}
		if addr < backend.CodeWindow { // the code window bypasses the D-cache
			s.dAccess(addr)
		}
		R[in.Rt] = v
		s.loadMask = 1 << in.Rt
	case SB:
		addr := R[in.Rs] + uint32(in.Imm)
		if !s.StoreByte(addr, R[in.Rt]) {
			return
		}
		s.dAccess(addr)
	case SH:
		addr := R[in.Rs] + uint32(in.Imm)
		if !s.StoreHalf(addr, R[in.Rt]) {
			return
		}
		s.dAccess(addr)
	case SW:
		addr := R[in.Rs] + uint32(in.Imm)
		if !s.StoreWord(addr, R[in.Rt]) {
			return
		}
		s.dAccess(addr)
	case BEQ:
		if R[in.Rs] == R[in.Rt] {
			nextNPC = s.branchTarget(in.Imm)
		}
	case BNE:
		if R[in.Rs] != R[in.Rt] {
			nextNPC = s.branchTarget(in.Imm)
		}
	case BLEZ:
		if int32(R[in.Rs]) <= 0 {
			nextNPC = s.branchTarget(in.Imm)
		}
	case BGTZ:
		if int32(R[in.Rs]) > 0 {
			nextNPC = s.branchTarget(in.Imm)
		}
	case BLTZ:
		if int32(R[in.Rs]) < 0 {
			nextNPC = s.branchTarget(in.Imm)
		}
	case BGEZ:
		if int32(R[in.Rs]) >= 0 {
			nextNPC = s.branchTarget(in.Imm)
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
		s.RaiseTrap(TrapBadInstr)
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

func (s *Sim) branchTarget(imm int32) uint32 {
	// Target is relative to the instruction after the branch, whose word
	// index is s.npc (the delay slot) plus... in MIPS terms the target is
	// delay-slot address + 4*imm, i.e. (branch word index + 1) + imm.
	return s.PC + 1 + uint32(imm)
}

func (s *Sim) dAccess(addr uint32) {
	if s.dcache != nil && !s.dcache.access(addr) {
		s.DCacheMisses++
		s.Cycles += int64(s.cfg.MissPenalty)
	}
}
