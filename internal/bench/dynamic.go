package bench

import (
	"fmt"
	"strings"

	"tnsr/internal/codefile"
	"tnsr/internal/interp"
	"tnsr/internal/talc"
	"tnsr/internal/xrun"
)

// Extension experiment E12: static vs. dynamic translation. The paper
// surveys both strategies and explains Tandem's choice of static
// translation ("our performance goals were high", "the necessary
// translation algorithms require significant time and memory", "Tandem
// machines are primarily used for months-long execution of a few
// applications"). This experiment quantifies that trade-off: lazy
// translation of hot procedures wins on short runs, up-front translation
// wins as the run length grows.

const crossoverProg = `
INT total;
INT PROC work(n); INT n;
BEGIN
  INT i; INT s;
  s := 0;
  FOR i := 1 TO n DO s := s + i \ 7;
  RETURN s;
END;
PROC main MAIN;
BEGIN
  INT r;
  total := 0;
  FOR r := 1 TO RUNSLIT DO total := (total + work(60)) LAND 16383;
  PUTNUM(total);
END;
`

// CrossoverPoint holds one run length's comparison.
type CrossoverPoint struct {
	Runs           int
	StaticCycles   float64 // translation + execution
	DynamicCycles  float64
	DynamicWinning bool
}

// Crossover measures both strategies across run lengths, checking each
// run's outcome against the interpreter's.
func Crossover(runLengths []int) ([]CrossoverPoint, error) {
	const budget = 4_000_000_000
	var out []CrossoverPoint
	for _, runs := range runLengths {
		src := strings.ReplaceAll(crossoverProg, "RUNSLIT", fmt.Sprint(runs))
		// Both strategies translate copies, so one compile serves all three
		// runs.
		f, err := talc.Compile("xover", src)
		if err != nil {
			return nil, err
		}
		want, err := xrun.Interpret(interp.New(f, nil), budget)
		if err != nil {
			return nil, err
		}
		runC, transC, static, err := xrun.StaticCost(f, nil, codefile.LevelDefault, budget)
		if err != nil {
			return nil, err
		}
		if err := want.Check(static); err != nil {
			return nil, fmt.Errorf("run length %d, static: %w", runs, err)
		}
		res, err := xrun.RunDynamic(f, nil, 5, codefile.LevelDefault, 0, budget)
		if err != nil {
			return nil, err
		}
		if err := want.Check(res.Outcome); err != nil {
			return nil, fmt.Errorf("run length %d, dynamic: %w", runs, err)
		}
		out = append(out, CrossoverPoint{
			Runs:           runs,
			StaticCycles:   runC + transC,
			DynamicCycles:  res.Total(),
			DynamicWinning: res.Total() < runC+transC,
		})
	}
	return out, nil
}

// CrossoverTable renders the comparison.
func CrossoverTable(points []CrossoverPoint) string {
	var b strings.Builder
	b.WriteString("Static vs dynamic translation (extension): total Cyclone/R cycles\n")
	b.WriteString("including modeled translation cost\n\n")
	fmt.Fprintf(&b, "%10s %14s %14s   %s\n", "run length", "static", "dynamic", "winner")
	for _, p := range points {
		winner := "static"
		if p.DynamicWinning {
			winner = "dynamic"
		}
		fmt.Fprintf(&b, "%10d %14.0f %14.0f   %s\n",
			p.Runs, p.StaticCycles, p.DynamicCycles, winner)
	}
	b.WriteString("\nTandem's workloads run for months: the static strategy amortizes.\n")
	return b.String()
}
