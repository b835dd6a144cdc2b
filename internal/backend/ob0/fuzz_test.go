package ob0

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tnsr/internal/backend"
)

// reencode rebuilds the machine word for a decoded instruction through the
// public encoders. Decode is strict (unused bits must be zero), so for
// every word Decode accepts this must be the identity — the encoding has
// exactly one spelling per instruction.
func reencode(in Instr) uint32 {
	switch {
	case in.Op.IsRType():
		return EncR(in.Op, in.A, in.B, in.C)
	case in.Op.IsIType():
		return EncI(in.Op, in.A, in.B, in.Imm)
	case in.Op.IsLoad() || in.Op.IsStore():
		return EncM(in.Op, in.A, in.B, in.Imm)
	case in.Op.IsBranch():
		return EncBr(in.Op, in.Imm)
	case in.Op == JA || in.Op == JLA:
		return EncJ(in.Op, in.Target)
	case in.Op == JR:
		return EncJR(in.B)
	case in.Op == JLR:
		return EncJLR(in.A, in.B)
	case in.Op == BRK:
		return EncBrk(in.Target)
	case in.Op == SVC:
		return EncSvc(in.Target)
	}
	panic(fmt.Sprintf("reencode: unhandled op %s", in.Op))
}

// ob0DecodeSeeds are the corpus seeds for FuzzOb0Decode: one word per
// encoding family plus the near-miss shapes the strict decoder must
// reject (nonzero unused bits, out-of-range opcodes, truncation-like
// zero tails).
func ob0DecodeSeeds() map[string]uint32 {
	return map[string]uint32{
		"nop":          Nop,
		"r-type":       EncR(ADD, 3, 4, 5),
		"cmp":          EncR(CMP, 0, 7, 8),
		"mvh":          EncR(MVH, 9, 0, 0),
		"i-sign":       EncI(ADDI, 1, 2, -7),
		"i-zero":       EncI(IORI, 1, 2, 0xFFFF),
		"shift":        EncI(LSLI, 1, 2, 31),
		"mvhi":         EncI(MVHI, 6, 0, 0x0100),
		"load":         EncM(LDW, 3, 9, 0x40),
		"store":        EncM(STH, 3, 9, -4),
		"branch":       EncBr(BGT, -3),
		"jump":         EncJ(JA, 0x123456),
		"jr":           EncJR(backend.RegRA),
		"jlr":          EncJLR(backend.RegRA, backend.RegT0),
		"brk":          EncBrk(2),
		"svc":          EncSvc(5),
		"zero":         0,
		"bad-op":       uint32(NumOps) << 26,
		"all-ones":     0xFFFFFFFF,
		"r-dirty-low":  EncR(ADD, 3, 4, 5) | 1,
		"mvh-dirty":    EncR(MVH, 9, 1, 0),
		"cmp-dirty":    EncR(CMP, 2, 7, 8),
		"jr-dirty":     EncJR(backend.RegRA) | 1<<21,
		"shift-range":  EncI(LSLI, 1, 2, 31) | 0x20,
		"branch-dirty": EncBr(BGT, -3) | 1<<20,
	}
}

// FuzzOb0Decode fuzzes the strict word decoder: it must never panic, must
// reject damaged encodings as INVALID, and every word it accepts must
// re-encode to exactly the same bits (the fixed-point property that keeps
// the assembler, lowerer, disassembler and simulator in one universe).
// Seeds beyond f.Add live in testdata/fuzz/FuzzOb0Decode (see
// TestRegenOb0FuzzCorpus).
func FuzzOb0Decode(f *testing.F) {
	for _, w := range ob0DecodeSeeds() {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, w uint32) {
		in := Decode(w)
		if s := Disassemble(0, w); s == "" {
			t.Fatalf("Disassemble(%#08x) is empty", w)
		}
		if in.Op == INVALID {
			return
		}
		if got := reencode(in); got != w {
			t.Fatalf("decode(%#08x) = %+v re-encodes to %#08x", w, in, got)
		}
		// The def/use metadata must stay in the register file no matter
		// what the operands are.
		if d := in.Def(); d < -1 || d > 31 {
			t.Fatalf("decode(%#08x): def %d out of range", w, d)
		}
		for _, u := range in.Uses(nil) {
			if u > 31 {
				t.Fatalf("decode(%#08x): use %d out of range", w, u)
			}
		}
	})
}

// ob0AsmSeeds are the corpus seeds for FuzzOb0Asm: a routine-shaped
// program exercising every mnemonic family, plus the malformed shapes the
// assembler must reject without crashing (missing operands, immediates
// beyond encoder ranges, bad registers, duplicate labels).
func ob0AsmSeeds() map[string]string {
	return map[string]string{
		"routine": `; corpus seed: every family
top:
  li   $t0, 0x12345
  mvhi $t1, 0x100
  iori $t1, $t1, 0x44   ; comment
  add  $t2, $t0, $t1
  sub  $t3, $t2, 7
  ldw  $t4, 8($db)
  sth  $t4, table($z)
  cmp  $t4, $t0
  beq  done
  mul  $t5, $t4, $t0
  mvh  $t6
  jla  top
  jlr  $ra, $t6
  svc  5
done:
  move $t7, $t5
  not  $t8, $t7
  neg  $t9, $t8
  jr   $ra
table:
  .word 0x48
  brk 2
`,
		"empty":         "",
		"label-only":    "a:\nb: c:\n",
		"no-operands":   "move\n",
		"word-bare":     ".word\n",
		"bad-reg":       "add $q, $t0, $t1\n",
		"imm-overflow":  "addi $t0, $t0, 70000\n",
		"cmpi-64bit":    "cmpi $t0, 4294967301\n",
		"ldw-64bit":     "ldw $t0, 4294967296($t1)\n",
		"lsli-64bit":    "lsli $t0, $t0, 4294967297\n",
		"iori-negative": "iori $t0, $t0, -1\n",
		"mvhi-wide":     "mvhi $t0, 0x10000\n",
		"shift-range":   "lsli $t0, $t0, 32\n",
		"jump-range":    "ja 0x4000000\n",
		"branch-far":    "beq 40000\n",
		"dup-label":     "x:\nx:\n",
		"unknown-op":    "frobnicate $t0\n",
	}
}

// FuzzOb0Asm throws arbitrary source text at the ob0 assembler: it must
// reject malformed programs with errors, never panic, and every word of a
// program it accepts must disassemble and — when it decodes as an
// instruction — survive the decode/re-encode fixed point. Seeds beyond
// f.Add live in testdata/fuzz/FuzzOb0Asm (see TestRegenOb0FuzzCorpus).
func FuzzOb0Asm(f *testing.F) {
	for _, src := range ob0AsmSeeds() {
		f.Add(src)
	}
	extern := map[string]uint32{"EXT_A": 0x40, "EXT_BIG": 0x01000040}
	f.Fuzz(func(t *testing.T, src string) {
		code, labels, err := Assemble(src, extern)
		if err != nil {
			return
		}
		for l, at := range labels {
			if int(at) > len(code) {
				t.Fatalf("label %q = %d beyond %d emitted words", l, at, len(code))
			}
		}
		for i, w := range code {
			if s := Disassemble(uint32(i), w); s == "" {
				t.Fatalf("word %d (%#08x) has empty disassembly", i, w)
			}
			if in := Decode(w); in.Op != INVALID {
				if got := reencode(in); got != w {
					t.Fatalf("word %d: %#08x re-encodes to %#08x", i, w, got)
				}
			}
		}
	})
}

// TestRegenOb0FuzzCorpus rewrites the checked-in fuzz corpora from the
// seed maps (run with REGEN_FUZZ_CORPUS=1 after an encoding or assembler
// change); normally it just asserts the checked-in files match the seeds.
func TestRegenOb0FuzzCorpus(t *testing.T) {
	regen := os.Getenv("REGEN_FUZZ_CORPUS") != ""
	check := func(target, name, want string) {
		t.Helper()
		dir := filepath.Join("testdata", "fuzz", target)
		path := filepath.Join(dir, name)
		if regen {
			if err := os.MkdirAll(dir, 0o777); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o666); err != nil {
				t.Fatal(err)
			}
			return
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (set REGEN_FUZZ_CORPUS=1 to regenerate)", err)
		}
		if string(got) != want {
			t.Errorf("%s/%s is stale (set REGEN_FUZZ_CORPUS=1 to regenerate)", target, name)
		}
	}
	for name, w := range ob0DecodeSeeds() {
		check("FuzzOb0Decode", name, fmt.Sprintf("go test fuzz v1\nuint32(%d)\n", w))
	}
	for name, src := range ob0AsmSeeds() {
		check("FuzzOb0Asm", name, fmt.Sprintf("go test fuzz v1\nstring(%q)\n", src))
	}
}
