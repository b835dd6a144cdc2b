package fleet

import (
	"testing"

	"tnsr/internal/codefile"
)

// TestFleetReportGolden pins one whole fleet report across commits: ET1 at
// Default on 16 machines, 3 of them chaos, over two rounds (the second
// retranslated under the first round's folded captures). The JSON carries
// every machine-state count, the merged per-procedure residency and the
// escape sites, so a change to how runners are built, attributed or
// priced shows up here byte for byte. TestFleetDeterministic only compares
// two runs of one build.
func TestFleetReportGolden(t *testing.T) {
	fr, err := Run(Config{
		Machines: 16, ChaosMachines: 3, Rounds: 2,
		Level: codefile.LevelDefault, Seed: 2024, ChaosSeed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
	data, err := fr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fleet-et1.json", data)
}
