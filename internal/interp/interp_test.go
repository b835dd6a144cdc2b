package interp

import (
	"strings"
	"testing"

	"tnsr/internal/tns"
	"tnsr/internal/tnsasm"
)

// run assembles and executes a program, failing the test on traps.
func run(t *testing.T, src string) *Machine {
	t.Helper()
	f, err := tnsasm.Assemble("test", src)
	if err != nil {
		t.Fatal(err)
	}
	m := New(f, nil)
	if err := m.Run(1_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Trap != tns.TrapNone {
		t.Fatalf("trap %d at P=%d", m.Trap, m.TrapP)
	}
	return m
}

func TestArithmetic(t *testing.T) {
	m := run(t, `
GLOBALS 8
MAIN main
PROC main
  LDI 7
  LDI 5
  ADD
  STOR G+0     ; 12
  LDI 7
  LDI 5
  SUB
  STOR G+1     ; 2
  LDI 7
  LDI 5
  MPY
  STOR G+2     ; 35
  LDI 47
  LDI 5
  DIV
  STOR G+3     ; 9
  LDI 47
  LDI 5
  MOD
  STOR G+4     ; 2
  LDI 7
  NEG
  STOR G+5     ; -7
  EXIT 0
ENDPROC
`)
	want := []int16{12, 2, 35, 9, 2, -7}
	for i, w := range want {
		if got := int16(m.Mem[i]); got != w {
			t.Errorf("G+%d = %d, want %d", i, got, w)
		}
	}
}

func TestLogicAndShifts(t *testing.T) {
	m := run(t, `
GLOBALS 8
MAIN main
PROC main
  LDI 12
  LDI 10
  LAND
  STOR G+0     ; 8
  LDI 12
  LDI 10
  LOR
  STOR G+1     ; 14
  LDI 12
  LDI 10
  XOR
  STOR G+2     ; 6
  LDI 0
  NOT
  STOR G+3     ; -1
  LDI 1
  SHL 4
  STOR G+4     ; 16
  LDI -16
  SHRA 2
  STOR G+5     ; -4
  LDI -16
  SHRL 12
  STOR G+6     ; 15
  LDI 51
  ANDI 15
  STOR G+7     ; 3
  EXIT 0
ENDPROC
`)
	want := []int16{8, 14, 6, -1, 16, -4, 15, 3}
	for i, w := range want {
		if got := int16(m.Mem[i]); got != w {
			t.Errorf("G+%d = %d, want %d", i, got, w)
		}
	}
}

func TestConstantsAndRegisterOps(t *testing.T) {
	m := run(t, `
GLOBALS 8
MAIN main
PROC main
  LDI 4
  LDHI 210    ; 4*256+210 = 1234
  STOR G+0
  LDI 3
  DUP
  ADD
  STOR G+1    ; 6
  LDI 1
  LDI 2
  EXCH
  STOR G+2    ; 1 (top after EXCH)
  STOR G+3    ; 2
  LDI 9
  STAR 0
  LDRA 0
  LDRA 0
  ADD
  STOR G+4    ; 18
  EXIT 0
ENDPROC
`)
	want := []int16{1234, 6, 1, 2, 18}
	for i, w := range want {
		if got := int16(m.Mem[i]); got != w {
			t.Errorf("G+%d = %d, want %d", i, got, w)
		}
	}
}

func TestMemoryAddressing(t *testing.T) {
	m := run(t, `
GLOBALS 16
DATA 8: 100 101 102 103
MAIN main
PROC main
  ADDS 4        ; locals L+1..L+4
  LOAD G+8
  STOR G+0      ; 100
  LDI 8
  STOR G+1      ; pointer to G+8 in G+1
  LOAD G+1,I
  STOR G+2      ; 100 via indirection
  LOAD G+8,X ; needs index on top: index pushed... see below
  EXIT 0
ENDPROC
`)
	if m.Mem[0] != 100 || m.Mem[2] != 100 {
		t.Errorf("direct/indirect loads: %v", m.Mem[:4])
	}
}

func TestIndexedAddressing(t *testing.T) {
	m := run(t, `
GLOBALS 16
DATA 8: 100 101 102 103
MAIN main
PROC main
  LDI 2
  LOAD G+8,X
  STOR G+0      ; 102
  LDI 55
  LDI 3
  STOR G+8,X    ; G+11 = 55
  LOAD G+11
  STOR G+1
  EXIT 0
ENDPROC
`)
	if int16(m.Mem[0]) != 102 {
		t.Errorf("indexed load = %d, want 102", int16(m.Mem[0]))
	}
	if int16(m.Mem[1]) != 55 {
		t.Errorf("indexed store: G+11 = %d, want 55", int16(m.Mem[1]))
	}
}

func TestByteAddressing(t *testing.T) {
	m := run(t, `
GLOBALS 16
DATA 8: 0x4142 0x4344
MAIN main
PROC main
  LDI 16        ; byte address of G+8 high byte
  STOR G+0
  LOAD G+0
  STOR G+1      ; byte pointer in G+1
  LDI 0
  LDB G+1,I,X
  STOR G+2      ; 'A' = 0x41
  LDI 3
  LDB G+1,I,X
  STOR G+3      ; 'D' = 0x44
  LDI 90        ; 'Z'
  LDI 1
  STB G+1,I,X   ; second byte of G+8
  LOAD G+8
  STOR G+4      ; 0x415A
  LDB G+9       ; direct byte load: high byte of word 9
  STOR G+5      ; 0x43
  EXIT 0
ENDPROC
`)
	if m.Mem[2] != 0x41 || m.Mem[3] != 0x44 {
		t.Errorf("byte loads = %x,%x", m.Mem[2], m.Mem[3])
	}
	if m.Mem[4] != 0x415A {
		t.Errorf("byte store result = %04x, want 415A", m.Mem[4])
	}
	if m.Mem[5] != 0x43 {
		t.Errorf("direct LDB = %02x, want 43", m.Mem[5])
	}
}

func TestDoubleOps(t *testing.T) {
	m := run(t, `
GLOBALS 16
MAIN main
PROC main
  LDI 1
  LDI 0         ; pair = 0x00010000 = 65536
  LDI 0
  LDI 100       ; pair = 100
  DADD
  STD G+0       ; 65636 = 0x00010064
  LDI 0
  LDI 3
  LDI 0
  LDI 100
  DMPY
  STD G+2       ; 300
  LDD G+2
  LDI 0
  LDI 7
  DSUB
  STD G+4       ; 293
  LDI 0
  LDI 3
  LDHI 232      ; 3*256+232 = 1000
  LDI 0
  LDI 10
  DDIV
  STD G+6       ; 100
  LDI -1
  CTOD
  STD G+8       ; 0xFFFFFFFF
  LDD G+8
  DNEG
  STD G+10      ; 1
  LDD G+0
  DSHL 4
  STD G+12
  EXIT 0
ENDPROC
`)
	get32 := func(i int) int32 {
		return int32(uint32(m.Mem[i])<<16 | uint32(m.Mem[i+1]))
	}
	if get32(0) != 65636 {
		t.Errorf("DADD = %d", get32(0))
	}
	if get32(2) != 300 {
		t.Errorf("DMPY = %d", get32(2))
	}
	if get32(4) != 293 {
		t.Errorf("DSUB = %d", get32(4))
	}
	if get32(6) != 100 {
		t.Errorf("DDIV = %d", get32(6))
	}
	if get32(8) != -1 {
		t.Errorf("CTOD = %d", get32(8))
	}
	if get32(10) != 1 {
		t.Errorf("DNEG = %d", get32(10))
	}
	if get32(12) != 65636<<4 {
		t.Errorf("DSHL = %d", get32(12))
	}
}

func TestBranchesAndLoop(t *testing.T) {
	// Sum 1..10 with a conditional loop.
	m := run(t, `
GLOBALS 4
MAIN main
PROC main
  LDI 0
  STOR G+0      ; sum
  LDI 1
  STOR G+1      ; i
loop:
  LOAD G+1
  CMPI 10
  BG done
  LOAD G+0
  LOAD G+1
  ADD
  STOR G+0
  LOAD G+1
  ADDI 1
  STOR G+1
  BUN loop
done:
  EXIT 0
ENDPROC
`)
	if m.Mem[0] != 55 {
		t.Errorf("sum = %d, want 55", m.Mem[0])
	}
}

func TestCaseJump(t *testing.T) {
	src := `
GLOBALS 4
MAIN main
PROC main
  LOAD G+1
  CASE
CASETAB c0, c1, c2
  LDI -1        ; out of range falls through here
  STOR G+0
  EXIT 0
c0:
  LDI 10
  STOR G+0
  EXIT 0
c1:
  LDI 20
  STOR G+0
  EXIT 0
c2:
  LDI 30
  STOR G+0
  EXIT 0
ENDPROC
`
	for idx, want := range map[uint16]int16{0: 10, 1: 20, 2: 30, 3: -1, 500: -1} {
		f := tnsasm.MustAssemble("case", src)
		m := New(f, nil)
		m.Mem[1] = idx
		if err := m.Run(1000); err != nil {
			t.Fatal(err)
		}
		if int16(m.Mem[0]) != want {
			t.Errorf("case %d -> %d, want %d", idx, int16(m.Mem[0]), want)
		}
	}
}

func TestProcedureCallsAndRecursion(t *testing.T) {
	// fib(n) computed recursively; result returned on the register stack.
	m := run(t, `
GLOBALS 4
MAIN main
PROC fib RESULT 1 ARGS 1
  ADDS 1        ; local temp at L+1
  LOAD L-3      ; n
  LDI 2
  CMP           ; pops both operands: the register stack stays clean
  BGE rec
  LOAD L-3
  EXIT 1
rec:
  LOAD L-3
  ADDI -1
  ADDS 1
  STOR S-0      ; push argument on the memory stack
  PCAL fib      ; fib(n-1) now on register stack
  STOR L+1      ; spill to a local across the second call
  LOAD L-3
  ADDI -2
  ADDS 1
  STOR S-0
  PCAL fib
  LOAD L+1
  ADD
  EXIT 1
ENDPROC
PROC main
  LDI 10
  ADDS 1
  STOR S-0
  PCAL fib
  STOR G+0
  EXIT 0
ENDPROC
`)
	if m.Mem[0] != 55 {
		t.Errorf("fib(10) = %d, want 55", m.Mem[0])
	}
}

func TestXCALAndSETRP(t *testing.T) {
	m := run(t, `
GLOBALS 4
MAIN main
PROC double RESULT 1 ARGS 1
  LOAD L-3
  DUP
  ADD
  EXIT 1
ENDPROC
PROC main
  LDI 21
  ADDS 1
  STOR S-0      ; argument on the memory stack
  LDPL 0        ; PLabel of "double"
  XCAL
  SETRP 0       ; compiler clue: one result word
  STOR G+0
  EXIT 0
ENDPROC
`)
	if m.Mem[0] != 42 {
		t.Errorf("XCAL double(21) = %d, want 42", m.Mem[0])
	}
}

func TestLocalsAndParams(t *testing.T) {
	m := run(t, `
GLOBALS 4
MAIN main
PROC addsq RESULT 1 ARGS 2
  ADDS 1        ; one local at L+1
  LOAD L-4      ; first arg
  LOAD L-4
  MPY
  STOR L+1
  LOAD L-3      ; second arg
  LOAD L-3
  MPY
  LOAD L+1
  ADD
  EXIT 2
ENDPROC
PROC main
  LDI 3
  STOR G+1
  LOAD G+1      ; push arg 1 = 3 onto memory stack? no: register stack
  ADDS 1
  STOR S-0      ; arg 1 = 3 at S
  LDI 4
  ADDS 1
  STOR S-0      ; arg 2 = 4
  PCAL addsq
  STOR G+0      ; 25
  EXIT 0
ENDPROC
`)
	if m.Mem[0] != 25 {
		t.Errorf("addsq(3,4) = %d, want 25", m.Mem[0])
	}
}

func TestMOVBAndStrings(t *testing.T) {
	m := run(t, `
GLOBALS 32
DATA 8: 0x6865 0x6C6C 0x6F00   ; "hello"
MAIN main
PROC main
  LDI 16        ; src byte addr (word 8)
  LDI 32        ; dst byte addr (word 16)
  LDI 5
  MOVB
  LDI 32
  LDI 16
  LDI 5
  CMPB          ; compare dst against src
  BNE bad
  LDI 1
  STOR G+0
  EXIT 0
bad:
  LDI 0
  STOR G+0
  EXIT 0
ENDPROC
`)
	if m.Mem[0] != 1 {
		t.Error("MOVB copy then CMPB mismatch")
	}
	if m.Mem[16] != 0x6865 || m.Mem[17] != 0x6C6C {
		t.Errorf("copied words: %04x %04x", m.Mem[16], m.Mem[17])
	}
}

func TestMOVBOverlapSmear(t *testing.T) {
	// Forward overlapping move smears the first byte, the authentic
	// behaviour the paper's millicode must preserve.
	m := run(t, `
GLOBALS 16
DATA 4: 0x4142 0x4344 0x0000
MAIN main
PROC main
  LDI 8         ; src: byte addr of G+4
  LDI 9         ; dst: one byte later
  LDI 3
  MOVB
  EXIT 0
ENDPROC
`)
	// Bytes were A B C D; copying 3 bytes src=0 dst=1 forward yields A A A A.
	if m.Mem[4] != 0x4141 || m.Mem[5] != 0x4141 {
		t.Errorf("smear: %04x %04x, want 4141 4141", m.Mem[4], m.Mem[5])
	}
}

func TestSCNB(t *testing.T) {
	m := run(t, `
GLOBALS 16
DATA 4: 0x6162 0x6364   ; "abcd"
MAIN main
PROC main
  LDI 8         ; byte addr of 'a'
  LDI 99        ; 'c'
  LDI 4
  SCNB
  STOR G+0      ; position 2
  BE found
  EXIT 0
found:
  LDI 1
  STOR G+1
  EXIT 0
ENDPROC
`)
	if m.Mem[0] != 2 || m.Mem[1] != 1 {
		t.Errorf("SCNB pos=%d found=%d", m.Mem[0], m.Mem[1])
	}
}

func TestExtendedAddressing(t *testing.T) {
	m := run(t, `
GLOBALS 16
DATA 8: 1234
MAIN main
PROC main
  LDI 0
  LDI 16        ; 32-bit byte address of word 8
  LDE
  STOR G+0      ; 1234
  LDI 77
  LDI 0
  LDI 20        ; word 10
  STE
  LOAD G+10
  STOR G+1      ; 77
  LDI 0
  LDI 17        ; low byte of word 8 (1234 = 0x04D2)
  LDBE
  STOR G+2      ; 0xD2 = 210
  LDI -1        ; low byte 0xFF is stored
  LDI 0
  LDI 24        ; high byte of word 12
  STBE
  LOAD G+12
  STOR G+3      ; 0xFF00
  EXIT 0
ENDPROC
`)
	if m.Mem[0] != 1234 || m.Mem[1] != 77 || m.Mem[2] != 210 || m.Mem[3] != 0xFF00 {
		t.Errorf("extended ops: %v", m.Mem[:4])
	}
}

func TestADM(t *testing.T) {
	m := run(t, `
GLOBALS 8
DATA 3: 40
MAIN main
PROC main
  LDI 2
  LDI 3         ; address
  ADM
  LDI 5
  LDI 3
  ADM ,ATOMIC
  EXIT 0
ENDPROC
`)
	if m.Mem[3] != 47 {
		t.Errorf("ADM result = %d, want 47", m.Mem[3])
	}
}

func TestOverflowTrap(t *testing.T) {
	f := tnsasm.MustAssemble("ovf", `
GLOBALS 4
MAIN main
PROC main
  SETT 1
  LDI 127
  LDHI 255      ; 32767
  ADDI 1
  STOR G+0
  EXIT 0
ENDPROC
`)
	m := New(f, nil)
	m.Run(1000)
	if m.Trap != tns.TrapOverflow {
		t.Errorf("trap = %d, want overflow", m.Trap)
	}
	// Without traps enabled, V is set but execution continues.
	f2 := tnsasm.MustAssemble("ovf2", `
GLOBALS 4
MAIN main
PROC main
  LDI 127
  LDHI 255
  ADDI 1
  STOR G+0
  EXIT 0
ENDPROC
`)
	m2 := New(f2, nil)
	if err := m2.Run(1000); err != nil {
		t.Fatal(err)
	}
	if m2.Trap != tns.TrapNone {
		t.Error("should not trap with T clear")
	}
	if int16(m2.Mem[0]) != -32768 {
		t.Errorf("wrapped result = %d", int16(m2.Mem[0]))
	}
}

func TestDivZeroTrap(t *testing.T) {
	f := tnsasm.MustAssemble("dz", `
MAIN main
PROC main
  LDI 1
  LDI 0
  DIV
  EXIT 0
ENDPROC
`)
	m := New(f, nil)
	m.Run(1000)
	if m.Trap != tns.TrapDivZero {
		t.Errorf("trap = %d, want divzero", m.Trap)
	}
}

func TestConsoleSVC(t *testing.T) {
	m := run(t, `
GLOBALS 8
DATA 2: 0x6869   ; "hi"
MAIN main
PROC main
  LDI 104       ; 'h'
  SVC 1
  LDI -42
  SVC 2
  LDI 4         ; byte addr of G+2
  LDI 2
  SVC 3
  EXIT 0
ENDPROC
`)
	if got := m.Console.String(); got != "h-42hi" {
		t.Errorf("console = %q", got)
	}
}

func TestHaltSVC(t *testing.T) {
	f := tnsasm.MustAssemble("halt", `
MAIN main
PROC main
  LDI 3
  SVC 0
ENDPROC
`)
	m := New(f, nil)
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if !m.Halted || m.ExitStatus != 3 {
		t.Errorf("halted=%v status=%d", m.Halted, m.ExitStatus)
	}
}

// TestRunBudget pins the budget edge: a program that halts on its last
// budgeted instruction has halted, not run away, and each Run call
// counts its own budget.
func TestRunBudget(t *testing.T) {
	f := tnsasm.MustAssemble("budget", `
GLOBALS 2
MAIN main
PROC main
  LDI 7
  STOR G+0
  EXIT 0
ENDPROC
`)
	m := New(f, nil)
	if err := m.Run(3); err != nil || !m.Halted || m.Prof.Instrs != 3 {
		t.Fatalf("Run(3): err=%v halted=%v instrs=%d, want nil/true/3", err, m.Halted, m.Prof.Instrs)
	}

	m = New(f, nil)
	if err := m.Run(2); err == nil || m.Halted || m.Prof.Instrs != 2 {
		t.Fatalf("Run(2): err=%v halted=%v instrs=%d, want an error/false/2", err, m.Halted, m.Prof.Instrs)
	}
	if err := m.Run(1); err != nil || !m.Halted || m.Mem[0] != 7 {
		t.Fatalf("Run(1) after Run(2): err=%v halted=%v G+0=%d", err, m.Halted, m.Mem[0])
	}
}

func TestSystemLibraryCall(t *testing.T) {
	lib := tnsasm.MustAssemble("lib", `
PROC lib_triple RESULT 1 ARGS 1
  LOAD L-3
  DUP
  DUP
  ADD
  ADD
  EXIT 1
ENDPROC
`)
	user := tnsasm.MustAssemble("user", `
GLOBALS 4
MAIN main
PROC main
  LDI 14
  ADDS 1
  STOR S-0
  SCAL 0
  STOR G+0
  EXIT 0
ENDPROC
`)
	m := New(user, lib)
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if m.Mem[0] != 42 {
		t.Errorf("lib_triple(14) = %d, want 42", m.Mem[0])
	}
	if m.Space != SpaceUser {
		t.Error("should return to user space")
	}
}

func TestFlagsCCKV(t *testing.T) {
	f := tnsasm.MustAssemble("flags", `
MAIN main
PROC main
  LDI -1
  LDI 1
  ADD          ; 0, carry out
  EXIT 0
ENDPROC
`)
	m := New(f, nil)
	// Step to just after ADD.
	for i := 0; i < 3; i++ {
		m.Step()
	}
	if m.CC != 0 || !m.K || m.V {
		t.Errorf("CC=%d K=%v V=%v after -1+1", m.CC, m.K, m.V)
	}
}

func TestUCMP(t *testing.T) {
	m := run(t, `
GLOBALS 4
MAIN main
PROC main
  LDI -1        ; 0xFFFF
  LDI 1
  UCMP          ; unsigned: 0xFFFF > 1
  BG big
  LDI 0
  STOR G+0
  EXIT 0
big:
  LDI 1
  STOR G+0
  EXIT 0
ENDPROC
`)
	if m.Mem[0] != 1 {
		t.Error("UCMP should compare unsigned")
	}
}

func TestStoreTrace(t *testing.T) {
	f := tnsasm.MustAssemble("trace", `
GLOBALS 4
MAIN main
PROC main
  LDI 1
  STOR G+0
  LDI 2
  STOR G+1
  EXIT 0
ENDPROC
`)
	m := New(f, nil)
	var stores []uint32
	m.StoreTrace = func(a, v uint16) {
		stores = append(stores, uint32(a)<<16|uint32(v))
	}
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	// The two explicit stores must appear, in order, within the trace
	// (marker pushes are also traced).
	var got []uint32
	for _, s := range stores {
		if s>>16 < 4 {
			got = append(got, s)
		}
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 0x10002 {
		t.Errorf("store trace = %x", got)
	}
}

func TestProfileCounts(t *testing.T) {
	m := run(t, `
GLOBALS 4
MAIN main
PROC main
  LDI 1
  STOR G+0
  LOAD G+0
  DEL
  EXIT 0
ENDPROC
`)
	if m.Prof.Instrs != 5 {
		t.Errorf("instrs = %d, want 5", m.Prof.Instrs)
	}
	if m.Prof.Counts[tns.ClassMem] != 2 {
		t.Errorf("mem class = %d, want 2", m.Prof.Counts[tns.ClassMem])
	}
	if m.Prof.Counts[tns.ClassExit] != 1 {
		t.Errorf("exit class = %d", m.Prof.Counts[tns.ClassExit])
	}
}

func TestRunawayGuard(t *testing.T) {
	f := tnsasm.MustAssemble("loop", `
MAIN main
PROC main
here:
  BUN here
ENDPROC
`)
	m := New(f, nil)
	if err := m.Run(1000); err == nil || !strings.Contains(err.Error(), "exceeded") {
		t.Errorf("want runaway error, got %v", err)
	}
}

func TestBadPEPTrap(t *testing.T) {
	f := tnsasm.MustAssemble("badpep", `
MAIN main
PROC main
  PCAL 99
ENDPROC
`)
	m := New(f, nil)
	m.Run(100)
	if m.Trap != tns.TrapBadPEP {
		t.Errorf("trap = %d, want bad PEP", m.Trap)
	}
	// SCAL with no library also traps.
	f2 := tnsasm.MustAssemble("nolib", `
MAIN main
PROC main
  SCAL 0
ENDPROC
`)
	m2 := New(f2, nil)
	m2.Run(100)
	if m2.Trap != tns.TrapBadPEP {
		t.Errorf("trap = %d, want bad PEP for SCAL without library", m2.Trap)
	}
}

func TestBadSVCTrap(t *testing.T) {
	f := tnsasm.MustAssemble("badsvc", `
MAIN main
PROC main
  SVC 99
ENDPROC
`)
	m := New(f, nil)
	m.Run(100)
	if m.Trap != tns.TrapBadSVC {
		t.Errorf("trap = %d, want bad SVC", m.Trap)
	}
}

func TestStackOverflowTrap(t *testing.T) {
	f := tnsasm.MustAssemble("sovf", `
MAIN main
PROC grow
  ADDS 120
  PCAL grow
  EXIT 0
ENDPROC
PROC main
  PCAL grow
  EXIT 0
ENDPROC
`)
	m := New(f, nil)
	m.Run(10_000_000)
	if m.Trap != tns.TrapStackOvf {
		t.Errorf("trap = %d, want stack overflow", m.Trap)
	}
}

func TestExtendedAddressTrap(t *testing.T) {
	f := tnsasm.MustAssemble("eaddr", `
MAIN main
PROC main
  LDI 2
  LDI 0
  LDE
  EXIT 0
ENDPROC
`)
	m := New(f, nil)
	m.Run(100)
	if m.Trap != tns.TrapAddress {
		t.Errorf("trap = %d, want address trap for 0x00020000", m.Trap)
	}
}
