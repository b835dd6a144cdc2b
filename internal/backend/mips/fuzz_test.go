package mips_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tnsr/internal/risc"
)

// mipsAsmSeeds are the corpus seeds for FuzzMIPSAsm: a routine-shaped
// program exercising every mnemonic family, plus the malformed shapes the
// assembler must reject without crashing (short operand lists, fields
// beyond encoder ranges, bad registers, duplicate labels).
func mipsAsmSeeds() map[string]string {
	return map[string]string{
		"routine": `; corpus seed: every family
top:
  li    $t0, 0x12345
  lui   $t1, 0x100
  ori   $t1, $t1, 0x44   ; comment
  addu  $t2, $t0, $t1
  subu  $t3, $t2, $t1
  addiu $t3, $t3, -7
  sll   $t4, $t3, 2
  srav  $t4, $t4, $t0
  lw    $t4, 8($db)
  sh    $t4, table($z)
  lbu   $t5, EXT_A($t4)
  beq   $t4, $t0, done
  nop
  bltz  $t4, top
  mult  $t4, $t0
  mflo  $t5
  jal   top
  jalr  $ra, $t6
  syscall 5
done:
  move  $t7, $t5
  not   $t8, $t7
  neg   $t9, $t8
  jr    $ra
table:
  .word 0x48
  break 2
`,
		"empty":        "",
		"label-only":   "a:\nb: c:\n",
		"move-short":   "move $r0\n",
		"beq-short":    "beq $r0\n",
		"lw-short":     "lw $r0\n",
		"li-short":     "li $t0\n",
		"sll-short":    "sll $r0, $r1\n",
		"jalr-short":   "jalr $r0\n",
		"word-bare":    ".word\n",
		"addu-short":   "addu $r0, $r1\n",
		"bad-reg":      "addu $q, $t0, $t1\n",
		"imm-overflow": "and $t0, $t0, 70000\n",
		"andi-wide":    "andi $t0, $t0, 70000\n",
		"addiu-wide":   "addiu $t0, $t0, 70000\n",
		"lui-wide":     "lui $t0, 0x10000\n",
		"ori-negative": "ori $t0, $t0, -1\n",
		"sll-wide":     "sll $t0, $t0, 40\n",
		"sll-negative": "sll $t0, $t0, -1\n",
		"addiu-64bit":  "addiu $t0, $t0, 4294967301\n",
		"lw-64bit":     "lw $t0, 4294967296($t1)\n",
		"j-64bit":      "j 0x100000000\n",
		"li-64bit":     "li $t0, 0x1FFFFFFFF\n",
		"mem-offset":   "lw $t0, 40000($t1)\n",
		"jump-range":   "j 0x4000000\n",
		"branch-far":   "b 40000\n",
		"dup-label":    "x:\nx:\n",
		"unknown-op":   "frobnicate $t0\n",
	}
}

// FuzzMIPSAsm throws arbitrary source text at the MIPS assembler under the
// contract FuzzOb0Asm holds the ob0 assembler to: a malformed program is
// an error, never a panic; every label of a program it accepts falls within
// the emitted words; and every word disassembles. Seeds beyond f.Add live
// in testdata/fuzz/FuzzMIPSAsm (see TestRegenMIPSFuzzCorpus).
func FuzzMIPSAsm(f *testing.F) {
	for _, src := range mipsAsmSeeds() {
		f.Add(src)
	}
	extern := map[string]uint32{"EXT_A": 0x40, "EXT_BIG": 0x01000040}
	f.Fuzz(func(t *testing.T, src string) {
		code, labels, err := risc.Assemble(src, extern)
		if err != nil {
			return
		}
		for l, at := range labels {
			if int(at) > len(code) {
				t.Fatalf("label %q = %d beyond %d emitted words", l, at, len(code))
			}
		}
		for i, w := range code {
			if s := risc.Disassemble(uint32(i), w); s == "" {
				t.Fatalf("word %d (%#08x) has empty disassembly", i, w)
			}
		}
	})
}

// TestRegenMIPSFuzzCorpus rewrites the checked-in fuzz corpus from the seed
// map (run with REGEN_FUZZ_CORPUS=1 after an assembler change); normally it
// just asserts the checked-in files match the seeds.
func TestRegenMIPSFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzMIPSAsm")
	for name, src := range mipsAsmSeeds() {
		path := filepath.Join(dir, name)
		want := fmt.Sprintf("go test fuzz v1\nstring(%q)\n", src)
		if os.Getenv("REGEN_FUZZ_CORPUS") != "" {
			if err := os.MkdirAll(dir, 0o777); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(want), 0o666); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (set REGEN_FUZZ_CORPUS=1 to regenerate)", err)
		}
		if string(got) != want {
			t.Errorf("%s is stale (set REGEN_FUZZ_CORPUS=1 to regenerate)", path)
		}
	}
}
