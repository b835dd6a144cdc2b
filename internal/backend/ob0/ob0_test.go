package ob0_test

import (
	"strings"
	"testing"

	"tnsr/internal/backend/backendtest"
	"tnsr/internal/backend/ob0"
)

// TestConformance holds the ob0 target to the same backend contract as the
// MIPS default. The def/use adapter skips control flow and the host
// protocol, which the single-word property test cannot exercise; the flag
// and H side channels start identical in both property runs, so CMP/MVH
// and friends stay in scope.
func TestConformance(t *testing.T) {
	backendtest.Contract(t, ob0.Default, func(w uint32) (int, []uint8, bool) {
		in := ob0.Decode(w)
		switch {
		case in.Op == ob0.INVALID, in.Op.IsBranch(), in.Op.IsJump(),
			in.Op == ob0.BRK, in.Op == ob0.SVC:
			return 0, nil, false
		}
		return in.Def(), in.Uses(nil), true
	})
}

// TestAsmErrors: malformed lines are errors, never panics; an operand
// that does not fit its field is an error naming its line, never a field
// truncated in the word.
func TestAsmErrors(t *testing.T) {
	for _, src := range []string{
		"frobnicate $t0",
		"add $t0, $qq, $t1",
		"ldw $t0, nope",
		"dup: nop\ndup: nop",
		"move $t0",
		"ldw $t0",
		"li $t0",
		"lsli $t0, $t0",
		"jlr $t0",
		".word",
		"add $t0, $t1",
		"mul $t0, $t1, 5",
	} {
		if _, _, err := ob0.Assemble(src, nil); err == nil {
			t.Errorf("expected error for %q", src)
		}
	}
	for _, src := range []string{
		"addi $t0, $t0, 70000",
		"add $t0, $t0, 4294967301",
		"iori $t0, $t0, -1",
		"mvhi $t0, 0x10000",
		"lsli $t0, $t0, 32",
		"lsli $t0, $t0, 4294967297",
		"cmpi $t0, 4294967301",
		"cmp $t0, 40000",
		"ldw $t0, 4294967296($t1)",
		"stw $t0, 40000($t1)",
		"ja 0x4000000",
		"jla 0x100000000",
		"beq 40000",
		"beq -5",
		"brk 0x100000",
		"li $t0, 0x1FFFFFFFF",
		".word 0x100000000",
	} {
		_, _, err := ob0.Assemble("nop\n"+src, nil)
		if err == nil || !strings.HasPrefix(err.Error(), "line 2: ") ||
			!strings.Contains(err.Error(), "out of range") {
			t.Errorf("%q: error %v, want line 2 out of range", src, err)
		}
	}
}
