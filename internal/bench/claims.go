package bench

import (
	"fmt"
	"math"
	"strings"

	"tnsr/internal/backend"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/millicode"
	"tnsr/internal/risc"
	"tnsr/internal/xrun"
)

type runResult = xrun.Runner

func newRunner(user, lib *codefile.File) (*runResult, error) {
	return xrun.New(user, lib, CycloneRConfig())
}

func mathPow(x, y float64) float64 { return math.Pow(x, y) }

// Claims renders the paper's headline scalar claims against measurements.
func Claims(rows []*Row) string {
	var b strings.Builder
	b.WriteString("Headline claims (paper -> measured)\n\n")

	// "Accelerated TNS code runs 5 to 8 times faster than interpreted code."
	lo, hi := math.Inf(1), 0.0
	for _, r := range rows {
		if r.Name == "et1" {
			continue
		}
		for _, lvl := range []codefile.AccelLevel{codefile.LevelDefault, codefile.LevelFast} {
			s := r.InterpTime / r.AccelTime[lvl]
			if s < lo {
				lo = s
			}
			if s > hi {
				hi = s
			}
		}
	}
	fmt.Fprintf(&b, "Accelerated / interpreted speedup: paper 5-8x -> measured %.1f-%.1fx\n", lo, hi)

	// "The time spent in interpretive interludes is 1% or less."
	worst := 0.0
	for _, r := range rows {
		for _, lvl := range Levels {
			if f := r.InterpFrac[lvl]; f > worst {
				worst = f
			}
		}
	}
	fmt.Fprintf(&b, "Interpreter-mode residency: paper <1%% -> measured worst %.2f%%\n", 100*worst)

	// "The Statement Debug option slows down code by 1 to 16%."
	sdLo, sdHi := math.Inf(1), 0.0
	for _, r := range rows {
		if r.Name == "et1" {
			continue
		}
		d := r.AccelTime[codefile.LevelStmtDebug]/r.AccelTime[codefile.LevelDefault] - 1
		if d < sdLo {
			sdLo = d
		}
		if d > sdHi {
			sdHi = d
		}
	}
	fmt.Fprintf(&b, "StmtDebug slowdown: paper 1-16%% -> measured %.0f%%-%.0f%%\n",
		100*sdLo, 100*sdHi)

	// "The Statement Debug option expands code by 6 to 15%."
	seLo, seHi := math.Inf(1), 0.0
	for _, r := range rows {
		d := r.Expansion[codefile.LevelStmtDebug]/r.Expansion[codefile.LevelDefault] - 1
		if d < seLo {
			seLo = d
		}
		if d > seHi {
			seHi = d
		}
	}
	fmt.Fprintf(&b, "StmtDebug size growth: paper 6-15%% -> measured %.0f%%-%.0f%%\n",
		100*seLo, 100*seHi)

	// "Using the Accelerator, Cyclone/R performs 2 to 4 times faster than
	// its contemporary CISC of similar size (CLX 800)."
	cLo, cHi := math.Inf(1), 0.0
	for _, r := range rows {
		lvl := codefile.LevelDefault
		if r.Name == "et1" {
			lvl = codefile.LevelFast
		}
		s := r.CISCTime["CLX800"] / r.AccelTime[lvl]
		if s < cLo {
			cLo = s
		}
		if s > cHi {
			cHi = s
		}
	}
	fmt.Fprintf(&b, "Cyclone/R vs CLX 800: paper 2-4x -> measured %.1f-%.1fx\n", cLo, cHi)

	// "This lookup takes 11 R3000 cycles."
	cyc, err := ExitLookupCycles()
	if err != nil {
		fmt.Fprintf(&b, "EXIT PMap lookup: paper 11 cycles -> measurement failed: %v\n", err)
	} else {
		fmt.Fprintf(&b, "EXIT PMap lookup: paper 11 cycles -> measured %d cycles\n", cyc)
	}
	return b.String()
}

// ExitLookupCycles measures the PMap lookup inside the EXIT millicode: the
// stretch from selecting the map to landing on the translated return point,
// which the paper costs at 11 R3000 cycles.
func ExitLookupCycles() (int64, error) {
	milli, labels := millicode.Build()
	look, ok := labels["exit_look"]
	if !ok {
		return 0, fmt.Errorf("exit_look label missing")
	}
	// Append a landing pad the lookup will jump to.
	pad := uint32(len(milli))
	code := append(append([]uint32{}, milli...), risc.EncBreak(99))

	s := risc.NewSim(risc.NewProgram(backend.FlatCode(code), risc.Config{}), make([]byte, millicode.MemBytes))
	// Synthesize a packed PMap whose group 0 maps TNS word 3 to the pad.
	base := uint32(millicode.TableArea)
	s.WriteWord(base, pad<<2) // group anchor byte address
	for i := 0; i < 8; i++ {
		s.Mem[base+8+uint32(i)] = 0xFF
	}
	s.Mem[base+8+3] = 0 // TNS word 3 -> anchor+0
	// Register state at exit_look: $t1 = TNS return address, $t2 = marker
	// ENV (user space), $t8/$t9 = the selected PMap arrays (the user/lib
	// selection happens before exit_look on the real path).
	s.Reg[risc.RegT0+1] = 3
	s.Reg[risc.RegT0+2] = 0
	s.Reg[risc.RegT0+8] = base
	s.Reg[risc.RegT0+9] = base + 8
	s.ResumeAt(look)
	if err := s.Run(1000); err != nil {
		return 0, err
	}
	if s.BreakCode != 99 {
		return 0, fmt.Errorf("lookup did not reach the return point (break %d, trap %d)",
			s.BreakCode, s.Trap)
	}
	// Exclude the landing-pad BREAK (1 cycle) and the map-presence guard
	// (2 cycles) that precede/follow the lookup proper.
	return s.Cycles - 3, nil
}

// AdversarialResidency measures interpreter-mode residency for a program
// whose XCAL result sizes must be guessed (no SETRP clue, no hints): the
// paper's "most accelerated programs spend less than 1% of their time in
// interpreter mode, even without hints", plus the effect of supplying
// ReturnValSize hints.
func AdversarialResidency() (noHints, withHints float64, err error) {
	f1, err := adversarialProgram()
	if err != nil {
		return 0, 0, err
	}
	if err := core.Accelerate(f1, core.Options{Level: codefile.LevelDefault}); err != nil {
		return 0, 0, err
	}
	r1, err := newRunner(f1, nil)
	if err != nil {
		return 0, 0, err
	}
	if err := r1.Run(200_000_000); err != nil {
		return 0, 0, err
	}
	noHints = r1.InterpFraction()

	f2, err := adversarialProgram()
	if err != nil {
		return 0, 0, err
	}
	// The hint overrides the (wrong) guess at the XCAL site.
	opts := core.Options{Level: codefile.LevelDefault}
	opts.Hints.XCALResultSize = map[uint16]int8{}
	for a := range adversarialXCALSites(f2) {
		opts.Hints.XCALResultSize[a] = 2
	}
	if err := core.Accelerate(f2, opts); err != nil {
		return 0, 0, err
	}
	r2, err := newRunner(f2, nil)
	if err != nil {
		return 0, 0, err
	}
	if err := r2.Run(200_000_000); err != nil {
		return 0, 0, err
	}
	withHints = r2.InterpFraction()
	return noHints, withHints, nil
}
