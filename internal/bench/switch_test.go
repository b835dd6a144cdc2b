package bench

import (
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/xrun"
)

// BenchmarkModeSwitch prices mixed-mode runs whose cost is dominated by
// interpreter/RISC switches: the adversarial program translated at
// Default with no profile, so every wrongly guessed XCAL result size sends
// execution back to the interpreter. Each op is New plus one complete run.
// Next to ns/op it reports switches/op and pages/switch, the data pages
// the memory mirror copied per switch (New's initial mirror included).
func BenchmarkModeSwitch(b *testing.B) {
	f, err := AdversarialProgram()
	if err != nil {
		b.Fatal(err)
	}
	if err := core.Accelerate(f, core.Options{Level: codefile.LevelDefault}); err != nil {
		b.Fatal(err)
	}
	var switches, pages int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := xrun.New(f, nil, CycloneRConfig())
		if err != nil {
			b.Fatal(err)
		}
		if err := r.Run(200_000_000); err != nil {
			b.Fatal(err)
		}
		if !r.Halted || r.Trap != 0 {
			b.Fatalf("halted=%v trap=%d", r.Halted, r.Trap)
		}
		switches += r.Switches
		pages += r.MirroredPages
	}
	b.ReportMetric(float64(switches)/float64(b.N), "switches/op")
	b.ReportMetric(float64(pages)/float64(switches), "pages/switch")
}
