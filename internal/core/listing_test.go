package core_test

import (
	"fmt"
	"strings"
	"testing"

	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/risc"
	"tnsr/internal/tnsasm"
	"tnsr/internal/xrun"
)

const fibSrc = `
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
  LDI 3
  ADDS 1
  STOR S-0
  PCAL fib
  STOR G+0
  EXIT 0
ENDPROC
`

// TestTranslationListing sanity-checks the shape of a small translation:
// the prologue builds the marker, calls become direct jumps, EXIT goes
// through millicode, and the listing disassembles cleanly.
func TestTranslationListing(t *testing.T) {
	f := tnsasm.MustAssemble("fib", fibSrc)
	if err := core.Accelerate(f, core.Options{Level: 3 /* Fast */}); err != nil {
		t.Fatal(err)
	}
	var listing strings.Builder
	for i, w := range f.Accel.RISC {
		fmt.Fprintf(&listing, "%d: %s\n", i, risc.Disassemble(uint32(i), w))
	}
	l := listing.String()
	for _, want := range []string{"sh $t0, 2($s)", "j 0"} {
		if !strings.Contains(l, want) {
			t.Errorf("listing lacks %q", want)
		}
	}
	// And it runs correctly.
	want, err := xrun.Interpret(interp.New(tnsasm.MustAssemble("fib", fibSrc), nil), 100000)
	if err != nil {
		t.Fatal(err)
	}
	r, err := xrun.New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Run(1000000); err != nil {
		t.Fatal(err)
	}
	if err := want.Check(r.Outcome()); err != nil {
		t.Error(err)
	}
	if want.Mem[0] != 2 {
		t.Errorf("fib(3) = %d, want 2", want.Mem[0])
	}
}
