package bench

import (
	"tnsr/internal/codefile"
	"tnsr/internal/tns"
	"tnsr/internal/tnsasm"
)

// AdversarialProgram builds a fresh copy of the E6/E9 test subject: a
// compute loop whose occasional indirect call returns TWO result words
// with no SETRP clue, so the Accelerator's pattern guess (one word,
// because a STOR follows) is wrong and the run-time RP check sends each
// such call into interpreter mode. The calls are rare relative to the
// loop work, so residency stays small — the situation the paper describes
// for unhinted programs.
func AdversarialProgram() (*codefile.File, error) {
	return tnsasm.Assemble("adversarial", `
GLOBALS 16
MAIN main
; pair returns two words; its summary is deliberately absent.
PROC pair ARGS 1
  LOAD L-3
  LOAD L-3
  ADDI 1
  EXIT 1
ENDPROC
PROC work RESULT 1 ARGS 1
  ADDS 1
  LDI 0
  STOR L+1
  LOAD L-3
loop:
  DUP
  BZ done
  DUP
  LOAD L+1
  ADD
  STOR L+1
  ADDI -1
  BUN loop
done:
  DEL
  LOAD L+1
  EXIT 1
ENDPROC
PROC main
  LDI 0
  STOR G+0      ; accumulator
  LDI 40
  STOR G+1      ; outer loop count
outer:
  LOAD G+1
  BZ finish
  ; long computation: work(200) called 30 times per indirect call
  LDI 30
  STOR G+4
inner:
  LOAD G+4
  BZ innerdone
  LDI 100
  ADDI 100
  ADDS 1
  STOR S-0
  PCAL work
  LOAD G+0
  ADD
  STOR G+0
  LOAD G+4
  ADDI -1
  STOR G+4
  BUN inner
innerdone:
  ; rare unhinted indirect call returning 2 words; guess says 1.
  LDI 5
  ADDS 1
  STOR S-0
  LDPL 0
  XCAL
  STOR G+2      ; consumes one word; the second is discarded below
  STOR G+3
  LOAD G+1
  ADDI -1
  STOR G+1
  BUN outer
finish:
  LOAD G+0
  SVC 2
  EXIT 0
ENDPROC
`)
}

// adversarialXCALSites finds the XCAL instruction addresses in the program
// (targets for ReturnValSize-style hints).
func adversarialXCALSites(f *codefile.File) map[uint16]bool {
	sites := map[uint16]bool{}
	for a, w := range f.Code {
		in := tns.Decode(w)
		if in.Major == tns.MajSpecial && in.Sub == tns.SubStack &&
			in.Operand == tns.OpXCAL {
			sites[uint16(a)] = true
		}
	}
	return sites
}
