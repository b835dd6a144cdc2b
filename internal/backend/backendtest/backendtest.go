// Package backendtest exports the backend.Backend conformance contract,
// mirroring storetest: every target implementation — mips, ob0, and any
// future one — proves the same seam guarantees by calling Contract from
// its own package test:
//
//   - Registry identity: ByID/ByName resolve back to the instance, and
//     Millicode returns private copies with every runtime entry label.
//   - Encoding is deterministic, leaves its input stream as it found it
//     (the stream is the translator's own buffer), and its Pos map is
//     well-formed (length len(ins)+1, non-decreasing, ending at len(Code)).
//   - A virtual-stream fragment covering the delicate lowering cases —
//     MULT/DIV + MFLO/MFHI adjacency, LA pairs and table words read back
//     through the code window, JR dispatch, JAL linkage, delay-slot nops,
//     loops — executes to the architecturally-defined result on the
//     backend's own simulator, with the BREAK, SYSCALL, StoreTrace,
//     breakpoint, trap and register-zero protocols all observed.
//   - Run's budget counts executed instructions: a program that stops on
//     its n-th instruction runs to its stop under Run(n), and Run(n-1)
//     returns the runaway error before that instruction executes.
//   - Every counted instruction is counted once: OnInstr is called once
//     per Instrs increment, and count slots attached as CPU.Counts hold,
//     slot by slot, what that hook saw (a trapping instruction and a
//     gap word included), so they sum to Instrs after a BREAK, a trap,
//     a budget stop and a run through a gap.
//   - The simulator runs on the data memory it is given, and records
//     every store that lands: a page of the TNS data region in Dirty, any
//     address beyond the region in DirtyBeyond; a fenced store writes and
//     records nothing.
//   - The code space is sparse: a code image holding only its segments
//     executes, and reads through the code window, exactly like the dense
//     image with zeros in the gaps; PCs and code-window loads at or beyond
//     its length trap.
//   - Def/use metadata agrees with the simulator: an instruction changes
//     no general register outside its def, and its effect is invariant
//     under perturbation of registers outside its use set.
//   - Translation is worker-count invariant: accelerating the same
//     program with 1 and 8 workers yields identical target bytes.
package backendtest

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tnsr/internal/backend"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/millicode"
	"tnsr/internal/tns"
	"tnsr/internal/workloads"
)

// DefUse reports the general-register def (-1 for none) and use set of
// one target word, or ok=false for words the def/use property test should
// skip (invalid encodings, control flow, host protocol).
type DefUse func(w uint32) (def int, uses []uint8, ok bool)

// Contract runs the full backend contract. defuse may be nil if the
// target does not expose def/use metadata.
func Contract(t *testing.T, be backend.Backend, defuse DefUse) {
	t.Run("registry", func(t *testing.T) { testRegistry(t, be) })
	t.Run("millicode", func(t *testing.T) { testMillicode(t, be) })
	t.Run("encode", func(t *testing.T) { testEncode(t, be) })
	t.Run("exec", func(t *testing.T) { testExec(t, be) })
	t.Run("breakpoints", func(t *testing.T) { testBreakpoints(t, be) })
	t.Run("traps", func(t *testing.T) { testTraps(t, be) })
	t.Run("budget", func(t *testing.T) { testBudget(t, be) })
	t.Run("sparse-code", func(t *testing.T) { testSparseCode(t, be) })
	t.Run("write-record", func(t *testing.T) { testWriteRecord(t, be) })
	if defuse != nil {
		t.Run("defuse-vs-sim", func(t *testing.T) { testDefUseVsSim(t, be, defuse) })
	}
	t.Run("worker-determinism", func(t *testing.T) { testWorkerDeterminism(t, be) })
}

func testRegistry(t *testing.T, be backend.Backend) {
	if got, ok := backend.ByID(be.ID()); !ok || got != be {
		t.Errorf("ByID(%d) = %v, %v; want the instance itself", be.ID(), got, ok)
	}
	if got, ok := backend.ByName(be.Name()); !ok || got != be {
		t.Errorf("ByName(%q) = %v, %v; want the instance itself", be.Name(), got, ok)
	}
	found := false
	for _, n := range backend.Names() {
		if n == be.Name() {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() = %v does not list %q", backend.Names(), be.Name())
	}
}

func testMillicode(t *testing.T, be backend.Backend) {
	code, labels := be.Millicode()
	if len(code) == 0 {
		t.Fatal("empty millicode image")
	}
	for _, l := range []string{
		millicode.LExit, millicode.LXcal, millicode.LScal,
		millicode.LMovb, millicode.LMovw, millicode.LCmpb, millicode.LScnb,
	} {
		at, ok := labels[l]
		if !ok {
			t.Errorf("millicode label %s missing", l)
			continue
		}
		if int(at) >= len(code) {
			t.Errorf("millicode label %s = %d beyond code (%d words)", l, at, len(code))
		}
	}
	// The image must fit below the user code base: it shares the code
	// space with translated sections.
	if len(code) > millicode.UserCodeBase {
		t.Errorf("millicode is %d words, overlaps user code base %#x",
			len(code), millicode.UserCodeBase)
	}
	// Private copies: a caller mutating its result must not poison the
	// next caller's.
	code[0] = ^code[0]
	for k := range labels {
		labels[k] = 0xDEAD
		break
	}
	code2, labels2 := be.Millicode()
	if code2[0] == code[0] {
		t.Error("Millicode code slice is shared between callers")
	}
	for k, v := range labels2 {
		if v == 0xDEAD && labels[k] == 0xDEAD {
			t.Error("Millicode label map is shared between callers")
			break
		}
	}
	// Every millicode word must disassemble to something.
	for i, w := range code2 {
		if s := be.Disasm(uint32(i), w); s == "" {
			t.Fatalf("Disasm(%d, %#x) is empty", i, w)
		}
	}
}

// prog builds a virtual instruction stream by hand, with the same
// invariants the core emitter maintains (explicit slot nops after control
// transfers, MFLO adjacent to its MULT/DIV).
type prog struct {
	ins    []backend.Inst
	labels map[backend.Label]int32
	next   backend.Label
}

func newProg() *prog { return &prog{labels: map[backend.Label]int32{}} }

func (p *prog) label() backend.Label { p.next++; return p.next }

func (p *prog) bind(l backend.Label) { p.labels[l] = int32(len(p.ins)) }

func (p *prog) add(i backend.Inst) int { p.ins = append(p.ins, i); return len(p.ins) - 1 }

func (p *prog) nop() { p.add(backend.Inst{Op: backend.SLL}) }

func (p *prog) labelAt(l backend.Label) (int32, error) {
	v, ok := p.labels[l]
	if !ok {
		return 0, errUnbound(l)
	}
	return v, nil
}

type errUnbound backend.Label

func (e errUnbound) Error() string { return "unbound label" }

func (p *prog) encode(t *testing.T, be backend.Backend) backend.Encoded {
	t.Helper()
	enc, err := be.Encode(p.ins, p.labelAt, 0)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if len(enc.Pos) != len(p.ins)+1 {
		t.Fatalf("len(Pos) = %d, want %d", len(enc.Pos), len(p.ins)+1)
	}
	for i := 1; i < len(enc.Pos); i++ {
		if enc.Pos[i] < enc.Pos[i-1] {
			t.Fatalf("Pos not non-decreasing at %d: %v", i, enc.Pos[i-1:i+1])
		}
	}
	if int(enc.Pos[len(p.ins)]) != len(enc.Code) {
		t.Fatalf("Pos[end] = %d, want len(Code) = %d", enc.Pos[len(p.ins)], len(enc.Code))
	}
	return enc
}

// execProg is the shared end-to-end fragment; see testExec for the
// expected architectural results.
func execProg() (p *prog, marks map[string]int) {
	p = newProg()
	marks = map[string]int{}
	z := uint8(backend.RegZero)
	tr := func(i int) uint8 { return uint8(backend.RegT0 + i) }
	ori := func(rd, rs uint8, imm int32) backend.Inst {
		return backend.Inst{Op: backend.ORI, Rt: rd, Rs: rs, Imm: imm}
	}

	lTbl, lCont, lFn, lLoop := p.label(), p.label(), p.label(), p.label()

	p.add(ori(tr(0), z, 6))
	p.add(ori(tr(1), z, 7))
	// MULT + adjacent MFLO: the emitter's invariant shape.
	p.add(backend.Inst{Op: backend.MULT, Rs: tr(0), Rt: tr(1)})
	p.add(backend.Inst{Op: backend.MFLO, Rd: tr(2)}) // 42
	p.add(backend.Inst{Op: backend.MULT, Rs: tr(0), Rt: tr(1)})
	p.add(backend.Inst{Op: backend.MFLO, Rd: tr(3)}) // 42
	p.add(backend.Inst{Op: backend.MFHI, Rd: tr(4)}) // 0
	// DIV + MFLO + MFHI: quotient and remainder.
	p.add(backend.Inst{Op: backend.DIV, Rs: tr(2), Rt: tr(0)})
	p.add(backend.Inst{Op: backend.MFLO, Rd: tr(5)}) // 7
	p.add(backend.Inst{Op: backend.MFHI, Rd: tr(6)}) // 0
	// DIV + MFHI only: the remainder-only shape.
	p.add(ori(tr(7), z, 43))
	p.add(backend.Inst{Op: backend.DIV, Rs: tr(7), Rt: tr(0)})
	p.add(backend.Inst{Op: backend.MFHI, Rd: tr(8)}) // 43 % 6 = 1
	// Stores: halfword then byte, both traced.
	marks["sh"] = p.add(backend.Inst{Op: backend.SH, Rt: tr(2), Rs: z, Imm: 0x40})
	p.add(backend.Inst{Op: backend.SB, Rt: tr(1), Rs: z, Imm: 0x43})
	// A write to $z must be discarded.
	p.add(ori(z, z, 5))
	// CASE shape: LA pair -> code-window load of a table word -> JR.
	p.add(backend.Inst{Op: backend.LUI, Rt: tr(9), HasLA: true, LAHi: true, LALbl: lTbl})
	p.add(backend.Inst{Op: backend.ORI, Rt: tr(9), Rs: tr(9), HasLA: true, LALbl: lTbl})
	p.add(backend.Inst{Op: backend.LW, Rt: tr(10), Rs: tr(9), Imm: 0})
	p.add(backend.Inst{Op: backend.JR, Rs: tr(10)})
	p.nop()
	p.bind(lTbl)
	p.add(backend.Inst{IsWord: true, JLbl: lCont})
	p.bind(lCont)
	// Call/return linkage.
	marks["jal"] = p.add(backend.Inst{Op: backend.JAL, JLbl: lFn})
	p.nop()
	p.add(ori(tr(12), z, 9)) // the return lands here
	p.add(backend.Inst{Op: backend.SYSCALL, Code: 5})
	// Count $t1 down to zero.
	p.bind(lLoop)
	p.add(backend.Inst{Op: backend.ADDIU, Rt: tr(1), Rs: tr(1), Imm: -1})
	p.add(backend.Inst{Op: backend.BGTZ, Rs: tr(1), Lbl: lLoop})
	p.nop()
	p.add(backend.Inst{Op: backend.BREAK, Code: 2})
	p.bind(lFn)
	p.add(ori(tr(11), z, 8))
	p.add(backend.Inst{Op: backend.JR, Rs: backend.RegRA})
	p.nop()
	return p, marks
}

func testEncode(t *testing.T, be backend.Backend) {
	p, _ := execProg()
	ins := slices.Clone(p.ins)
	enc := p.encode(t, be)
	if !slices.Equal(p.ins, ins) {
		t.Fatal("Encode wrote its input stream")
	}
	enc2 := p.encode(t, be)
	if !reflect.DeepEqual(enc, enc2) {
		t.Fatal("Encode is not deterministic")
	}
	for i, w := range enc.Code {
		if s := be.Disasm(uint32(i), w); s == "" {
			t.Fatalf("Disasm(%d, %#x) is empty", i, w)
		}
	}
}

func testExec(t *testing.T, be backend.Backend) {
	p, marks := execProg()
	enc := p.encode(t, be)

	sim := be.Load(backend.FlatCode(enc.Code)).NewSim(make([]byte, 0x10000))
	s := sim.Core()
	if s == nil {
		t.Fatal("Core() returned nil")
	}
	var traces [][2]uint32
	s.StoreTrace = func(addr uint32, v uint16) {
		traces = append(traces, [2]uint32{addr, uint32(v)})
	}
	var syscalls []uint32
	s.OnSyscall = func(c *backend.CPU, code uint32) {
		if c != s {
			t.Error("OnSyscall got a different CPU")
		}
		syscalls = append(syscalls, code)
	}
	var counted int64
	s.OnInstr = func(pc uint32) { counted++ }

	sim.ResumeAt(0)
	if err := sim.Run(100_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !s.Stopped || s.Trap != backend.TrapNone {
		t.Fatalf("stopped=%v trap=%d, want clean BREAK stop", s.Stopped, s.Trap)
	}
	if s.BreakCode != 2 {
		t.Fatalf("BreakCode = %d, want 2", s.BreakCode)
	}
	if counted != s.Instrs {
		t.Errorf("OnInstr calls = %d, Instrs = %d", counted, s.Instrs)
	}
	code := backend.FlatCode(enc.Code)
	cs := be.Load(code).NewSim(make([]byte, 0x10000))
	check := attachCounts(cs.Core(), code)
	cs.ResumeAt(0)
	if err := cs.Run(100_000); err != nil || cs.Core().BreakCode != 2 {
		t.Fatalf("counted Run: err=%v BreakCode=%d, want the BREAK stop", err, cs.Core().BreakCode)
	}
	check(t)
	if cs.Core().Instrs != s.Instrs {
		t.Errorf("counted run: %d instructions, hook-only run %d", cs.Core().Instrs, s.Instrs)
	}
	if s.Cycles < s.Instrs {
		t.Errorf("Cycles = %d < Instrs = %d", s.Cycles, s.Instrs)
	}

	tr := func(i int) uint8 { return uint8(backend.RegT0 + i) }
	wantReg := map[uint8]uint32{
		0:      0, // the $z write was discarded
		tr(0):  6,
		tr(1):  0, // counted down
		tr(2):  42,
		tr(3):  42,
		tr(4):  0,
		tr(5):  7,
		tr(6):  0,
		tr(7):  43,
		tr(8):  1,
		tr(11): 8,
		tr(12): 9,
	}
	for r, want := range wantReg {
		if got := s.Reg[r]; got != want {
			t.Errorf("R[%s] = %d, want %d", backend.RegName(r), got, want)
		}
	}
	// JAL linked past its delay slot: the link must be the byte address
	// of the virtual instruction after the slot nop, wherever this
	// backend placed it.
	wantRA := uint32(enc.Pos[marks["jal"]+2]) << 2
	if got := s.Reg[backend.RegRA]; got != wantRA {
		t.Errorf("R[$ra] = %#x, want %#x", got, wantRA)
	}
	if got := s.ReadHalf(0x40); got != 42 {
		t.Errorf("mem[0x40] = %d, want 42", got)
	}
	if got := s.Mem[0x43]; got != 7 {
		t.Errorf("mem[0x43] = %d, want 7", got)
	}
	wantTraces := [][2]uint32{{0x40, 42}, {0x42, 7}}
	if !reflect.DeepEqual(traces, wantTraces) {
		t.Errorf("store trace = %v, want %v", traces, wantTraces)
	}
	if !reflect.DeepEqual(syscalls, []uint32{5}) {
		t.Errorf("syscalls = %v, want [5]", syscalls)
	}
}

func testBreakpoints(t *testing.T, be backend.Backend) {
	p, marks := execProg()
	enc := p.encode(t, be)
	sim := be.Load(backend.FlatCode(enc.Code)).NewSim(make([]byte, 0x10000))
	s := sim.Core()
	bp := uint32(enc.Pos[marks["sh"]])
	s.Breakpoints = map[uint32]bool{bp: true}

	sim.ResumeAt(0)
	if err := sim.Run(100_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !s.BPHit || s.PC != bp {
		t.Fatalf("BPHit=%v PC=%d, want stop at breakpoint word %d", s.BPHit, s.PC, bp)
	}
	if s.ReadHalf(0x40) != 0 {
		t.Fatal("breakpoint stopped after the store, not before")
	}
	// Resume: the first instruction must not re-trigger the breakpoint.
	sim.ResumeAt(s.PC)
	if err := sim.Run(100_000); err != nil {
		t.Fatalf("resume Run: %v", err)
	}
	if s.BPHit || !s.Stopped || s.BreakCode != 2 {
		t.Fatalf("after resume: BPHit=%v BreakCode=%d, want clean finish", s.BPHit, s.BreakCode)
	}
	if got := s.ReadHalf(0x40); got != 42 {
		t.Errorf("mem[0x40] = %d after resume, want 42", got)
	}
}

func testTraps(t *testing.T, be backend.Backend) {
	z := uint8(backend.RegZero)
	t0, t1, t2 := uint8(backend.RegT0), uint8(backend.RegT0+1), uint8(backend.RegT0+2)
	ori := func(rd, rs uint8, imm int32) backend.Inst {
		return backend.Inst{Op: backend.ORI, Rt: rd, Rs: rs, Imm: imm}
	}
	cases := []struct {
		name string
		ins  []backend.Inst
		mark int // index of the trapping instruction
		want int
		prep func(c *backend.CPU)
	}{
		{
			name: "overflow",
			ins: []backend.Inst{
				{Op: backend.LUI, Rt: t0, Imm: 0x7FFF},
				ori(t0, t0, 0xFFFF),
				ori(t1, z, 1),
				{Op: backend.ADD, Rd: t2, Rs: t0, Rt: t1},
				{Op: backend.BREAK, Code: 9},
			},
			mark: 3,
			want: backend.TrapOverflow,
		},
		{
			name: "address",
			ins: []backend.Inst{
				ori(t0, z, 3),
				{Op: backend.LW, Rt: t1, Rs: t0, Imm: 0},
				{Op: backend.BREAK, Code: 9},
			},
			mark: 1,
			want: backend.TrapAddress,
		},
		{
			name: "protected",
			ins: []backend.Inst{
				ori(t0, z, 0x180),
				ori(t1, z, 1),
				{Op: backend.SH, Rt: t1, Rs: t0, Imm: 0},
				{Op: backend.BREAK, Code: 9},
			},
			mark: 2,
			want: backend.TrapProtected,
			prep: func(c *backend.CPU) { c.ProtectedLo, c.ProtectedHi = 0x100, 0x200 },
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			p := newProg()
			p.ins = tc.ins
			enc := p.encode(t, be)
			code := backend.FlatCode(enc.Code)
			sim := be.Load(code).NewSim(make([]byte, 0x10000))
			s := sim.Core()
			if tc.prep != nil {
				tc.prep(s)
			}
			check := attachCounts(s, code)
			sim.ResumeAt(0)
			if err := sim.Run(1000); err != nil {
				t.Fatalf("Run: %v", err)
			}
			check(t)
			if want := int64(enc.Pos[tc.mark] + 1); s.Instrs != want {
				t.Errorf("Instrs = %d, want %d: the trapping instruction counts", s.Instrs, want)
			}
			if !s.Stopped || s.Trap != tc.want {
				t.Fatalf("trap = %d (stopped=%v), want %d", s.Trap, s.Stopped, tc.want)
			}
			if s.BreakCode != 0 {
				t.Errorf("BreakCode = %d on a trap stop", s.BreakCode)
			}
			if want := uint32(enc.Pos[tc.mark]); s.TrapPC != want {
				t.Errorf("TrapPC = %d, want %d", s.TrapPC, want)
			}
		})
	}
}

// testBudget runs addiu; addiu; break under budgets around the program's
// length. The stop on the last budgeted instruction is a clean stop, not
// a runaway.
func testBudget(t *testing.T, be backend.Backend) {
	t0 := uint8(backend.RegT0)
	p := newProg()
	p.add(backend.Inst{Op: backend.ADDIU, Rt: t0, Rs: t0, Imm: 1})
	p.add(backend.Inst{Op: backend.ADDIU, Rt: t0, Rs: t0, Imm: 1})
	p.add(backend.Inst{Op: backend.BREAK, Code: 2})
	enc := p.encode(t, be)
	code := backend.FlatCode(enc.Code)
	run := func(budget int64) (*backend.CPU, error) {
		sim := be.Load(code).NewSim(make([]byte, 0x10000))
		check := attachCounts(sim.Core(), code)
		sim.ResumeAt(0)
		err := sim.Run(budget)
		check(t)
		return sim.Core(), err
	}

	s, err := run(0)
	if err != nil || !s.Stopped || s.BreakCode != 2 {
		t.Fatalf("unbudgeted Run: err=%v stopped=%v BreakCode=%d, want a clean BREAK stop",
			err, s.Stopped, s.BreakCode)
	}
	n := s.Instrs
	s, err = run(n)
	if err != nil {
		t.Errorf("Run(%d) of a program that stops on instruction %d: %v", n, n, err)
	}
	if !s.Stopped || s.BreakCode != 2 || s.Instrs != n || s.Reg[t0] != 2 {
		t.Errorf("Run(%d): stopped=%v BreakCode=%d Instrs=%d $t0=%d, want the BREAK stop after %d",
			n, s.Stopped, s.BreakCode, s.Instrs, s.Reg[t0], n)
	}
	s, err = run(n - 1)
	if err == nil {
		t.Errorf("Run(%d) of a %d-instruction program returned nil", n-1, n)
	}
	if s.Stopped || s.Instrs != n-1 {
		t.Errorf("Run(%d): stopped=%v Instrs=%d, want %d instructions and no stop",
			n-1, s.Stopped, s.Instrs, n-1)
	}
}

// testWriteRecord stores one word, halfword or byte per run into a
// memory the size of the runtime layout's TNS data region and tables, and
// checks what the simulator records: the page inside the region, the flag
// beyond it, nothing for a store the fence refuses. Host writes record the
// same way.
func testWriteRecord(t *testing.T, be backend.Backend) {
	z := uint8(backend.RegZero)
	t0, t1 := uint8(backend.RegT0), uint8(backend.RegT0+1)
	const region = 2 * tns.DataWords
	cases := []struct {
		name   string
		hi     int32 // $t0 = hi<<16 | lo
		lo     int32
		store  backend.Op
		page   int // page Dirty must hold, or -1
		beyond bool
		trap   int
	}{
		{"word-inside", 0, 0x1234, backend.SW, 0x12, false, backend.TrapNone},
		{"half-last-page", 1, 0xFFFE, backend.SH, tns.Pages - 1, false, backend.TrapNone},
		{"byte-beyond", 3, 0x0001, backend.SB, -1, true, backend.TrapNone},
		{"word-fenced", 2, 0x0010, backend.SW, -1, false, backend.TrapProtected},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newProg()
			p.ins = []backend.Inst{
				{Op: backend.LUI, Rt: t0, Imm: tc.hi},
				{Op: backend.ORI, Rt: t0, Rs: t0, Imm: tc.lo},
				{Op: backend.ORI, Rt: t1, Rs: z, Imm: 0x5A},
				{Op: tc.store, Rt: t1, Rs: t0},
				{Op: backend.BREAK, Code: 9},
			}
			mem := make([]byte, 2*region)
			sim := be.Load(backend.FlatCode(p.encode(t, be).Code)).NewSim(mem)
			s := sim.Core()
			if &s.Mem[0] != &mem[0] || len(s.Mem) != len(mem) {
				t.Fatal("the simulator does not run on the memory it was given")
			}
			s.ProtectedLo, s.ProtectedHi = region, region+0x40
			sim.ResumeAt(0)
			if err := sim.Run(100); err != nil {
				t.Fatalf("Run: %v", err)
			}
			if s.Trap != tc.trap {
				t.Fatalf("trap %d, want %d", s.Trap, tc.trap)
			}
			addr := uint32(tc.hi)<<16 | uint32(tc.lo)
			written := 0
			for _, b := range mem {
				if b != 0 {
					written++
				}
			}
			want := 1
			if tc.trap != backend.TrapNone {
				want = 0
			}
			if written != want {
				t.Errorf("%d nonzero bytes after a store of 0x5a at %#x, want %d", written, addr, want)
			}
			wantPages := 0
			if tc.page >= 0 {
				wantPages = 1
				if !s.Dirty.Has(tc.page) {
					t.Errorf("store at %#x: page %d not in Dirty", addr, tc.page)
				}
			}
			if s.Dirty.Len() != wantPages || s.DirtyBeyond != tc.beyond {
				t.Errorf("store at %#x: %d dirty pages, DirtyBeyond %v; want %d, %v",
					addr, s.Dirty.Len(), s.DirtyBeyond, wantPages, tc.beyond)
			}
		})
	}
	t.Run("host", func(t *testing.T) {
		sim := be.Load(backend.FlatCode([]uint32{0})).NewSim(make([]byte, 2*region))
		s := sim.Core()
		s.WriteWord(region-2, 0x01020304) // straddles the region's end
		if !s.Dirty.Has(tns.Pages-1) || s.Dirty.Len() != 1 || !s.DirtyBeyond {
			t.Errorf("a host write across the region's end: %d dirty pages (last %v), DirtyBeyond %v",
				s.Dirty.Len(), s.Dirty.Has(tns.Pages-1), s.DirtyBeyond)
		}
	})
}

// testSparseCode runs the same code sparse (only its two segments stored)
// and dense (zeros in the gap, up to the same length), and requires the
// same architectural outcome: a fragment at word 0 reads a gap word and
// the second segment's first word through the code window, then jumps
// into the gap a few words below the second segment, whose BREAK it
// reaches if gap words execute (as word 0 does on this target) and
// survive. Resuming at the code space's length, and a code-window load
// there, trap on both.
func testSparseCode(t *testing.T, be backend.Backend) {
	const (
		gapWord = 2*backend.CodePageWords + 7
		base    = 3*backend.CodePageWords + 5 // the second segment
		n       = base + 4                    // a partial last page
	)
	t0, t1, t2 := uint8(backend.RegT0), uint8(backend.RegT0+1), uint8(backend.RegT0+2)
	window := func(word int) []backend.Inst {
		v := int32(backend.CodeWindow + 4*word)
		return []backend.Inst{
			{Op: backend.LUI, Rt: t0, Imm: v >> 16},
			{Op: backend.ORI, Rt: t0, Rs: t0, Imm: v & 0xFFFF},
		}
	}
	p := newProg()
	for _, in := range window(gapWord) {
		p.add(in)
	}
	p.add(backend.Inst{Op: backend.LW, Rt: t1, Rs: t0})
	for _, in := range window(base) {
		p.add(in)
	}
	p.add(backend.Inst{Op: backend.LW, Rt: t2, Rs: t0})
	p.add(backend.Inst{Op: backend.J, JTarget: base - 3, JLbl: backend.NoLabel})
	p.nop()
	head := p.encode(t, be)
	tail, err := be.Encode([]backend.Inst{{Op: backend.BREAK, Code: 3}}, newProg().labelAt, base)
	if err != nil {
		t.Fatal(err)
	}
	dense := make([]uint32, n)
	copy(dense, head.Code)
	copy(dense[base:], tail.Code)
	sparse := backend.NewCodeImage(n,
		backend.Segment{Words: head.Code}, backend.Segment{Base: base, Words: tail.Code})
	if sparse.Len() != n || sparse.Word(gapWord) != 0 || sparse.Word(base) != tail.Code[0] {
		t.Fatalf("sparse image: len %d, gap word %#x, segment word %#x", sparse.Len(),
			sparse.Word(gapWord), sparse.Word(base))
	}

	run := func(code *backend.CodeImage, pc uint32) backend.CPU {
		sim := be.Load(code).NewSim(make([]byte, 0x1000))
		sim.ResumeAt(pc)
		if err := sim.Run(10_000); err != nil {
			t.Fatalf("Run: %v", err)
		}
		c := *sim.Core()
		c.Mem = nil
		return c
	}
	s, d := run(sparse, 0), run(backend.FlatCode(dense), 0)
	if !reflect.DeepEqual(s, d) {
		t.Errorf("sparse run %+v\ndense run  %+v", s, d)
	}
	if s.Reg[t1] != 0 || s.Reg[t2] != tail.Code[0] {
		t.Errorf("code window read %#x (gap) and %#x (segment), want 0 and %#x",
			s.Reg[t1], s.Reg[t2], tail.Code[0])
	}
	// A jump into the gap executes gap words, each counted in the page
	// of slots the gap pages after the first segment share.
	gs := be.Load(sparse).NewSim(make([]byte, 0x1000))
	check := attachCounts(gs.Core(), sparse)
	gs.ResumeAt(gapWord)
	if err := gs.Run(10_000); err != nil {
		t.Fatalf("Run from the gap: %v", err)
	}
	check(t)
	if gs.Core().Instrs == 0 {
		t.Error("a run from the gap executed nothing")
	}
	if end := run(sparse, n); end.Trap != backend.TrapBadInstr || end.TrapPC != n {
		t.Errorf("resume at the code length: trap %d at %d, want %d at %d",
			end.Trap, end.TrapPC, backend.TrapBadInstr, n)
	}
	q := newProg()
	q.ins = append(window(n), backend.Inst{Op: backend.LW, Rt: t1, Rs: t0},
		backend.Inst{Op: backend.BREAK, Code: 9})
	load := backend.NewCodeImage(n, backend.Segment{Words: q.encode(t, be).Code})
	if end := run(load, 0); end.Trap != backend.TrapAddress {
		t.Errorf("code-window load at the code length: trap %d, want %d", end.Trap, backend.TrapAddress)
	}
}

// attachCounts attaches count slots and a per-step hook to s, a fresh
// simulator over code. The returned check requires the slots to hold
// exactly what the hook saw, slot by slot, and to sum to Instrs.
func attachCounts(s *backend.CPU, code *backend.CodeImage) (check func(t *testing.T)) {
	s.Counts = make([]int64, code.Slots())
	want := make([]int64, code.Slots())
	s.OnInstr = func(pc uint32) { want[code.Slot(pc)]++ }
	return func(t *testing.T) {
		t.Helper()
		var sum int64
		for _, n := range s.Counts {
			sum += n
		}
		if sum != s.Instrs {
			t.Errorf("count slots sum to %d, Instrs = %d", sum, s.Instrs)
		}
		if !slices.Equal(s.Counts, want) {
			i := 0
			for s.Counts[i] == want[i] {
				i++
			}
			t.Errorf("count slot %d holds %d, the per-step hook counted %d", i, s.Counts[i], want[i])
		}
	}
}

// testDefUseVsSim cross-checks the target's def/use metadata against its
// simulator: execute a random valid word twice — the second time with
// every register outside its use set perturbed — and require identical
// effects; and require that no general register outside the def changed.
func testDefUseVsSim(t *testing.T, be backend.Backend, defuse DefUse) {
	rng := rand.New(rand.NewSource(1))
	const memBytes = 0x1000
	tried := 0
	for trial := 0; tried < 2000 && trial < 400000; trial++ {
		w := rng.Uint32()
		def, uses, ok := defuse(w)
		if !ok {
			continue
		}
		tried++
		used := map[uint8]bool{}
		for _, u := range uses {
			used[u] = true
		}

		var init [32]uint32
		for r := 1; r < 32; r++ {
			if rng.Intn(2) == 0 {
				init[r] = uint32(rng.Intn(memBytes - 8)) // often a valid address
			} else {
				init[r] = rng.Uint32()
			}
		}

		prog := be.Load(backend.FlatCode([]uint32{w}))
		run := func(regs [32]uint32) *backend.CPU {
			sim := prog.NewSim(make([]byte, memBytes))
			c := sim.Core()
			c.Reg = regs
			c.Reg[0] = 0
			sim.ResumeAt(0)
			if err := sim.Run(4); err != nil {
				t.Fatalf("word %#x: %v", w, err)
			}
			return c
		}

		a := run(init)
		perturbed := init
		for r := uint8(1); r < 32; r++ {
			if !used[r] && int(r) != def {
				perturbed[r] += 0x01010101
			}
		}
		b := run(perturbed)

		// No general register outside the def may change.
		for r := 1; r < 32; r++ {
			if r != def && a.Reg[r] != init[r] {
				t.Fatalf("word %#x (%s): register %s changed outside def %d",
					w, be.Disasm(0, w), backend.RegName(uint8(r)), def)
			}
		}
		if a.Reg[0] != 0 || b.Reg[0] != 0 {
			t.Fatalf("word %#x: register 0 not hardwired to zero", w)
		}
		// The effect must be a function of the use set alone.
		if a.Trap != b.Trap {
			t.Fatalf("word %#x (%s): trap %d vs %d under non-use perturbation",
				w, be.Disasm(0, w), a.Trap, b.Trap)
		}
		if def >= 0 && a.Trap == backend.TrapNone && a.Reg[def] != b.Reg[def] {
			t.Fatalf("word %#x (%s): def %s = %#x vs %#x under non-use perturbation",
				w, be.Disasm(0, w), backend.RegName(uint8(def)), a.Reg[def], b.Reg[def])
		}
		for i := range a.Mem {
			if a.Mem[i] != b.Mem[i] {
				t.Fatalf("word %#x (%s): memory differs at %#x under non-use perturbation",
					w, be.Disasm(0, w), i)
			}
		}
	}
	if tried < 100 {
		t.Fatalf("only %d valid words sampled; defuse hook too restrictive", tried)
	}
}

// testWorkerDeterminism accelerates the same program with 1 and 8 workers
// on this backend and requires identical target bytes at every level.
func testWorkerDeterminism(t *testing.T, be backend.Backend) {
	for _, lvl := range []codefile.AccelLevel{
		codefile.LevelStmtDebug, codefile.LevelDefault, codefile.LevelFast,
	} {
		lvl := lvl
		t.Run(lvl.String(), func(t *testing.T) {
			bytesAt := func(workers int) []uint32 {
				w, err := workloads.Build(workloads.Names[0], 1)
				if err != nil {
					t.Fatal(err)
				}
				user, _, err := core.AcceleratePair(w.User, w.Lib,
					core.Options{Level: lvl, Workers: workers, Backend: be}, core.Accelerate)
				if err != nil {
					t.Fatal(err)
				}
				return user.Accel.RISC
			}
			one, many := bytesAt(1), bytesAt(8)
			if !reflect.DeepEqual(one, many) {
				t.Fatalf("%s: Workers=1 and Workers=8 bytes differ (%d vs %d words)",
					be.Name(), len(one), len(many))
			}
		})
	}
}
