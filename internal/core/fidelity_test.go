package core_test

import (
	"fmt"
	"strings"
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/risc"
	"tnsr/internal/tnsasm"
	"tnsr/internal/tnsgen"
	"tnsr/internal/xrun"
)

// The paper's central correctness claim: the translated RISC code
// "calculates the same answers as the TNS code, and does exactly the same
// sequence of stores into memory". These tests run the same program through
// the pure interpreter and through the Accelerator + mixed-mode runtime at
// every option level and compare halt state, trap, exit status, console
// output and final memory (xrun.Outcome.Check).

var levels = []codefile.AccelLevel{
	codefile.LevelStmtDebug, codefile.LevelDefault, codefile.LevelFast,
}

// runFidelity runs src both ways at every level and compares.
func runFidelity(t *testing.T, name, src string) {
	t.Helper()
	runFidelityLib(t, name, src, "")
}

// runFidelityLib holds src (with libSrc as its system library, if any) to
// the pure interpreter at every level through the generator's oracle:
// xrun.Outcome.Check on every pass, plus the telemetry audit.
func runFidelityLib(t *testing.T, name, src, libSrc string) {
	t.Helper()
	for _, lvl := range levels {
		lvl := lvl
		t.Run(lvl.String(), func(t *testing.T) {
			o := tnsgen.DefaultOracle()
			o.Levels = []codefile.AccelLevel{lvl}
			if _, err := tnsgen.RunOracle(&tnsgen.Subject{Name: name, User: src, Lib: libSrc}, o); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestFidelityArithmetic(t *testing.T) {
	runFidelity(t, "arith", `
GLOBALS 16
MAIN main
PROC main
  LDI 7
  LDI 5
  ADD
  STOR G+0
  LDI 7
  LDI 5
  SUB
  STOR G+1
  LDI 7
  LDI -5
  MPY
  STOR G+2
  LDI 47
  LDI 5
  DIV
  STOR G+3
  LDI 47
  LDI 5
  MOD
  STOR G+4
  LDI 7
  NEG
  STOR G+5
  LDI 12
  LDI 10
  LAND
  STOR G+6
  LDI 12
  LDI 10
  LOR
  STOR G+7
  LDI 12
  LDI 10
  XOR
  STOR G+8
  LDI 0
  NOT
  STOR G+9
  LDI 3
  SHL 4
  STOR G+10
  LDI -64
  SHRA 3
  STOR G+11
  LDI -64
  SHRL 3
  STOR G+12
  LDI 51
  ANDI 15
  STOR G+13
  LDI 64
  ORI 7
  STOR G+14
  LDI 5
  SWAB
  STOR G+15
  EXIT 0
ENDPROC
`)
}

func TestFidelityLoopAndBranches(t *testing.T) {
	runFidelity(t, "loop", `
GLOBALS 8
MAIN main
PROC main
  LDI 0
  STOR G+0
  LDI 1
  STOR G+1
loop:
  LOAD G+1
  CMPI 100
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
  LOAD G+0
  LDI 19
  LDHI 186      ; 19*256+186 = 5050
  CMP
  BNE bad
  LDI 1
  STOR G+2
  EXIT 0
bad:
  LDI 0
  STOR G+2
  EXIT 0
ENDPROC
`)
}

func TestFidelityMemoryModes(t *testing.T) {
	runFidelity(t, "mem", `
GLOBALS 64
DATA 16: 100 101 102 103 104
MAIN main
PROC main
  ADDS 8        ; locals
  LDI 16
  STOR G+0      ; pointer to the table
  LOAD G+0,I    ; 100
  STOR G+1
  LDI 3
  LOAD G+0,I,X  ; 103
  STOR G+2
  LDI 2
  LOAD G+16,X   ; 102
  STOR G+3
  LDI 55
  STOR L+1
  LOAD L+1
  STOR G+4
  LDI 7
  ADDS 1
  STOR S-0
  LOAD S-0
  STOR G+5
  ADDS -1
  LDI 40        ; byte address of word 20
  STOR G+6
  LDI -1
  LDI 1
  STB G+6,I,X   ; low byte of word 20
  LOAD G+20
  STOR G+7
  LDB G+16      ; high byte of word 16 (100 = 0x0064 -> 0)
  STOR G+8
  LDI 1
  LDB G+6,I,X   ; low byte of word 20 = 0xFF
  STOR G+9
  EXIT 0
ENDPROC
`)
}

func TestFidelityDoubleOps(t *testing.T) {
	runFidelity(t, "dbl", `
GLOBALS 32
MAIN main
PROC main
  LDI 1
  LDI 0
  LDI 0
  LDI 100
  DADD
  STD G+0
  LDD G+0
  LDI 0
  LDI 7
  DSUB
  STD G+2
  LDI 0
  LDI 3
  LDI 0
  LDI 100
  DMPY
  STD G+4
  LDI 0
  LDI 3
  LDHI 232
  LDI 0
  LDI 10
  DDIV
  STD G+6
  LDI -1
  CTOD
  STD G+8
  LDD G+8
  DNEG
  STD G+10
  LDD G+0
  DSHL 3
  STD G+12
  LDD G+0
  DSHRL 2
  STD G+14
  LDD G+4
  DTOC
  STOR G+16
  LDD G+0
  LDD G+4
  DCMP
  BG big
  LDI 0
  STOR G+17
  EXIT 0
big:
  LDI 1
  STOR G+17
  EXIT 0
ENDPROC
`)
}

func TestFidelityCallsAndRecursion(t *testing.T) {
	runFidelity(t, "fib", `
GLOBALS 8
MAIN main
PROC fib RESULT 1 ARGS 1
  ADDS 1
  LOAD L-3
  LDI 2
  CMP
  BGE rec
  LOAD L-3
  EXIT 1
rec:
  LOAD L-3
  ADDI -1
  ADDS 1
  STOR S-0
  PCAL fib
  STOR L+1
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
  LDI 12
  ADDS 1
  STOR S-0
  PCAL fib
  STOR G+0
  EXIT 0
ENDPROC
`)
}

func TestFidelityCaseJump(t *testing.T) {
	runFidelity(t, "case", `
GLOBALS 8
MAIN main
PROC main
  LDI 0
  STOR G+1
loop:
  LOAD G+1
  CASE
CASETAB c0, c1, c2
  LDI -1        ; out of range
  STOR G+7
  EXIT 0
c0:
  LDI 10
  STOR G+2
  BUN next
c1:
  LDI 20
  STOR G+3
  BUN next
c2:
  LDI 30
  STOR G+4
next:
  LOAD G+1
  ADDI 1
  STOR G+1
  BUN loop
ENDPROC
`)
}

func TestFidelityXCALWithSETRP(t *testing.T) {
	runFidelity(t, "xcal", `
GLOBALS 8
MAIN main
PROC double RESULT 1 ARGS 1
  LOAD L-3
  DUP
  ADD
  EXIT 1
ENDPROC
PROC triple RESULT 1 ARGS 1
  LOAD L-3
  DUP
  DUP
  ADD
  ADD
  EXIT 1
ENDPROC
PROC main
  LDI 21
  ADDS 1
  STOR S-0
  LDPL 0
  XCAL
  SETRP 0
  STOR G+0      ; 42
  LOAD G+0
  ANDI 1        ; dynamic target selector: 42&1 = 0 -> "double"
  STOR G+2
  LDI 14
  ADDS 1
  STOR S-0
  LOAD G+2      ; PLabel chosen at run time
  XCAL
  SETRP 0
  STOR G+1      ; double(14) = 28
  EXIT 0
ENDPROC
`)
}

func TestFidelityXCALGuessedResult(t *testing.T) {
	// No SETRP after XCAL: the Accelerator must guess the result size and
	// emit a run-time RP check. The guess (1 word, STOR follows) is right.
	runFidelity(t, "xcalguess", `
GLOBALS 8
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
  STOR S-0
  LDPL 0
  XCAL
  STOR G+0
  EXIT 0
ENDPROC
`)
}

func TestFidelityStrings(t *testing.T) {
	runFidelity(t, "strings", `
GLOBALS 64
DATA 16: 0x6865 0x6C6C 0x6F21 0x0000   ; "hello!"
MAIN main
PROC main
  LDI 32        ; src byte addr
  LDI 64        ; dst byte addr (word 32)
  LDI 6
  MOVB
  LDI 64
  LDI 32
  LDI 6
  CMPB
  BNE bad
  LDI 1
  STOR G+0
  BUN cont
bad:
  LDI 0
  STOR G+0
cont:
  LDI 32
  LDI 108       ; 'l'
  LDI 6
  SCNB
  STOR G+1      ; position 2
  LDI 16
  LDI 40        ; word 20
  LDI 3
  MOVW
  LOAD G+21
  STOR G+2
  LDI 32        ; overlapping smear
  LDI 33
  LDI 3
  MOVB
  LOAD G+16
  STOR G+3
  EXIT 0
ENDPROC
`)
}

func TestFidelityExtendedAddressing(t *testing.T) {
	runFidelity(t, "ext", `
GLOBALS 32
DATA 8: 1234
MAIN main
PROC main
  LDI 0
  LDI 16
  LDE
  STOR G+0
  LDI 77
  LDI 0
  LDI 20
  STE
  LOAD G+10
  STOR G+1
  LDI 0
  LDI 17
  LDBE
  STOR G+2
  LDI -1
  LDI 0
  LDI 24
  STBE
  LOAD G+12
  STOR G+3
  EXIT 0
ENDPROC
`)
}

func TestFidelityRegisterOps(t *testing.T) {
	runFidelity(t, "regs", `
GLOBALS 16
MAIN main
PROC main
  LDI 9
  STAR 0
  LDRA 0
  LDRA 0
  ADD
  STOR G+0
  LDI 1
  LDI 2
  EXCH
  STOR G+1      ; 1
  STOR G+2      ; 2
  LDI 3
  DUP
  MPY
  STOR G+3      ; 9
  LDI 4
  LDI 5
  DEL
  STOR G+4      ; 4
  LDI 6
  LDI 7
  DDEL
  LDI 1
  STOR G+5
  EXIT 0
ENDPROC
`)
}

func TestFidelityADM(t *testing.T) {
	runFidelity(t, "adm", `
GLOBALS 8
DATA 3: 40
MAIN main
PROC main
  LDI 2
  LDI 3
  ADM
  LDI 5
  LDI 3
  ADM ,ATOMIC
  EXIT 0
ENDPROC
`)
}

func TestFidelityConsole(t *testing.T) {
	runFidelity(t, "console", `
GLOBALS 8
DATA 2: 0x6869   ; "hi"
MAIN main
PROC main
  LDI 104
  SVC 1
  LDI -42
  SVC 2
  LDI 4
  LDI 2
  SVC 3
  LDI 7
  SVC 0
ENDPROC
`)
}

func TestFidelitySystemLibrary(t *testing.T) {
	runFidelityLib(t, "libcall", `
GLOBALS 8
MAIN main
PROC main
  LDI 14
  ADDS 1
  STOR S-0
  SCAL 0
  STOR G+0
  LDI 10
  ADDS 1
  STOR S-0
  LDI 20
  ADDS 1
  STOR S-0
  SCAL 1
  STOR G+1
  EXIT 0
ENDPROC
`, `
PROC lib_triple RESULT 1 ARGS 1
  LOAD L-3
  DUP
  DUP
  ADD
  ADD
  EXIT 1
ENDPROC
PROC lib_addmul RESULT 1 ARGS 2
  LOAD L-4
  LOAD L-3
  ADD
  LOAD L-4
  MPY
  EXIT 2
ENDPROC
`)
}

func TestFidelityDivZeroTrap(t *testing.T) {
	runFidelity(t, "divzero", `
GLOBALS 4
MAIN main
PROC main
  LDI 5
  STOR G+0
  LDI 1
  LDI 0
  DIV
  STOR G+1
  EXIT 0
ENDPROC
`)
}

func TestFidelityOverflowTrapEnabled(t *testing.T) {
	// SETT 1 makes traps possible: Default and StmtDebug emit checks. The
	// Fast level intentionally omits them, so it is excluded here (the
	// paper: Fast is for programs that do not need exact trap emulation).
	src := `
GLOBALS 4
MAIN main
PROC main
  SETT 1
  LDI 127
  LDHI 255
  ADDI 1
  STOR G+0
  EXIT 0
ENDPROC
`
	o := tnsgen.DefaultOracle()
	o.Levels = []codefile.AccelLevel{codefile.LevelStmtDebug, codefile.LevelDefault}
	if _, err := tnsgen.RunOracle(&tnsgen.Subject{Name: "ovf", User: src}, o); err != nil {
		t.Fatal(err)
	}
}

func TestFidelityOverflowNoTraps(t *testing.T) {
	// Without SETT, overflow wraps silently in both modes.
	runFidelity(t, "ovfwrap", `
GLOBALS 4
MAIN main
PROC main
  LDI 127
  LDHI 255
  ADDI 1
  STOR G+0
  LDI 127
  LDHI 255
  LDI 1
  ADD
  STOR G+1
  LDI -128
  LDHI 0
  LDI 1
  SUB
  STOR G+2
  EXIT 0
ENDPROC
`)
}

func TestFidelityStatementMarkers(t *testing.T) {
	runFidelity(t, "stmts", `
GLOBALS 8
MAIN main
PROC main
  STMT 1
  LDI 5
  STOR G+0
  STMT 2
  LOAD G+0
  ADDI 1
  STOR G+1
  STMT 3
  LOAD G+1
  LOAD G+0
  MPY
  STOR G+2
  EXIT 0
ENDPROC
`)
}

func TestFidelityUCMPAndCompares(t *testing.T) {
	runFidelity(t, "ucmp", `
GLOBALS 8
MAIN main
PROC main
  LDI -1
  LDI 1
  UCMP
  BG a1
  LDI 0
  STOR G+0
  BUN n1
a1:
  LDI 1
  STOR G+0
n1:
  LDI -1
  LDI 1
  CMP
  BL a2
  LDI 0
  STOR G+1
  EXIT 0
a2:
  LDI 1
  STOR G+1
  EXIT 0
ENDPROC
`)
}

func TestAccelerateStats(t *testing.T) {
	f := tnsasm.MustAssemble("stats", `
GLOBALS 8
MAIN main
PROC helper RESULT 1 ARGS 1
  LOAD L-3
  ADDI 1
  EXIT 1
ENDPROC
PROC main
  LDI 1
  ADDS 1
  STOR S-0
  PCAL helper
  STOR G+0
  EXIT 0
ENDPROC
`)
	if err := core.Accelerate(f, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	st := f.Accel.Stats
	if st.TNSInstrs == 0 || st.RISCInstrs == 0 {
		t.Errorf("stats not collected: %+v", st)
	}
	if st.RISCInstrs < st.TNSInstrs {
		t.Errorf("expansion below 1: %d RISC for %d TNS", st.RISCInstrs, st.TNSInstrs)
	}
	if f.Accel.Level != codefile.LevelDefault {
		t.Error("level not recorded")
	}
	if len(f.Accel.Entries) != 2 || f.Accel.Entries[0] < 0 || f.Accel.Entries[1] < 0 {
		t.Errorf("entries: %v", f.Accel.Entries)
	}
}

func TestFidelityEmptyCase(t *testing.T) {
	// A CASE with an empty table always falls through.
	runFidelity(t, "emptycase", `
GLOBALS 4
MAIN main
PROC main
  LDI 2
  CASE
CASETAB
  LDI 77
  STOR G+0
  EXIT 0
ENDPROC
`)
}

func TestFidelityNegativeCaseIndex(t *testing.T) {
	runFidelity(t, "negcase", `
GLOBALS 4
MAIN main
PROC main
  LDI -1
  CASE
CASETAB a, b
  LDI 5
  STOR G+0
  EXIT 0
a:
  LDI 6
  STOR G+0
  EXIT 0
b:
  LDI 7
  STOR G+0
  EXIT 0
ENDPROC
`)
}

func TestFidelityDeepExpressionStack(t *testing.T) {
	// Seven pushes: RP wraps within the barrel.
	runFidelity(t, "deep", `
GLOBALS 4
MAIN main
PROC main
  LDI 1
  LDI 2
  LDI 3
  LDI 4
  LDI 5
  LDI 6
  LDI 7
  ADD
  ADD
  ADD
  ADD
  ADD
  ADD
  STOR G+0
  EXIT 0
ENDPROC
`)
}

func TestFidelityByteWrapAround(t *testing.T) {
	// Indexed byte addressing that wraps the 16-bit byte address: the
	// Default level truncates (matching the interpreter); Fast's contract
	// excludes such programs, so only StmtDebug/Default are compared.
	src := `
GLOBALS 16
DATA 2: 0x4142
MAIN main
PROC main
  LDI 8         ; byte pointer: 4 + 65535+9 wraps to 8... use direct cell
  STOR G+0
  LDI -4        ; negative index wraps the byte address
  LDHI 0
  DEL
  LDI 12
  LDB G+0,I,X   ; cell=8, idx=12 -> byte 20
  STOR G+1
  EXIT 0
ENDPROC
`
	runFidelity(t, "bytewrap", src)
}

// TestScaleLargeProgram pushes a large workload through translation to
// exercise PMap group anchoring, long-range branch resolution and temp
// pressure at scale.
func TestScaleLargeProgram(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	w := func() *codefile.File {
		var sb strings.Builder
		sb.WriteString("GLOBALS 64\nMAIN main\n")
		// 120 small procedures calling forward in a chain.
		for i := 0; i < 120; i++ {
			fmt.Fprintf(&sb, "PROC p%d RESULT 1 ARGS 1\n", i)
			sb.WriteString("  LOAD L-3\n  ADDI 1\n")
			if i > 0 {
				fmt.Fprintf(&sb, "  ADDS 1\n  STOR S-0\n  PCAL p%d\n", i-1)
			}
			sb.WriteString("  EXIT 1\nENDPROC\n")
		}
		sb.WriteString("PROC main\n  LDI 1\n  ADDS 1\n  STOR S-0\n  PCAL p119\n  STOR G+0\n  EXIT 0\nENDPROC\n")
		return tnsasm.MustAssemble("big", sb.String())
	}
	want, err := xrun.Interpret(interp.New(w(), nil), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	f := w()
	if err := core.Accelerate(f, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if len(f.Accel.RISC) < 1000 {
		t.Errorf("suspiciously small translation: %d words", len(f.Accel.RISC))
	}
	r, err := xrun.New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if err := want.Check(r.Outcome()); err != nil {
		t.Fatal(err)
	}
	if want.Mem[0] != 121 {
		t.Errorf("chain result = %d, want 121", want.Mem[0])
	}
}

func TestFidelityXCALIntoLibrary(t *testing.T) {
	// A PLabel with bit 15 set names a library procedure: the indirect
	// call crosses code spaces (MILLI_XCAL's library EMap path).
	runFidelityLib(t, "xcallib", `
GLOBALS 8
MAIN main
PROC main
  LDI 21
  ADDS 1
  STOR S-0
  LDI -128
  LDHI 0        ; PLabel 0x8000 = library PEP 0
  XCAL
  SETRP 0
  STOR G+0
  LDI 5
  ADDS 1
  STOR S-0
  LDI -128
  LDHI 1        ; library PEP 1, no SETRP: guessed + checked
  XCAL
  STOR G+1
  EXIT 0
ENDPROC
`, `
PROC lib_double RESULT 1 ARGS 1
  LOAD L-3
  DUP
  ADD
  EXIT 1
ENDPROC
PROC lib_square RESULT 1 ARGS 1
  LOAD L-3
  LOAD L-3
  MPY
  EXIT 1
ENDPROC
`)
}

// TestFidelityConsoleBetweenCalls pins the RP accounting of console SVCs:
// each one pops its operands, so every block leader and call return point
// downstream of a print sits one (PUTS: two) register-stack positions
// lower than a net-zero model would predict. A summary-known call after a
// PUTNUM gets no run-time RP confirmation, so a wrong static RP there
// silently reads the result from the wrong physical register.
func TestFidelityConsoleBetweenCalls(t *testing.T) {
	runFidelity(t, "svc-rp", `
GLOBALS 8
DATA 2: 0x6869   ; "hi"
MAIN main
PROC inc RESULT 1 ARGS 1
  LOAD L-3
  LDI 1
  ADD
  EXIT 1
ENDPROC
PROC main
  LDI 41
  ADDS 1
  STOR S-0
  PCAL inc
  SVC 2
  LDI 100
  ADDS 1
  STOR S-0
  PCAL inc
  SVC 2
  LDI 4
  LDI 2
  SVC 3
  LDI 99
  ADDS 1
  STOR S-0
  PCAL inc
  STOR G+0
  EXIT 0
ENDPROC
`)
}
