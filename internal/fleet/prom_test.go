package fleet

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tnsr/internal/obs"
)

// checkGolden compares got with testdata/name, or rewrites the file when
// GOLDEN_REGEN=1 (run that only on the tree whose output is the reference).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("GOLDEN_REGEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (GOLDEN_REGEN=1 writes it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestPrometheusGolden pins the tnsfleetd /metrics surface byte for byte
// on a two-round report whose final round has a source breaker and an
// out-of-enum escape reason (as a merged JSON report can carry).
func TestPrometheusGolden(t *testing.T) {
	fr := &FleetReport{
		Schema: FleetSchema, Workload: "et1", Machines: 16, TxnsPerMachine: 40,
		ChaosMachines: 2, Level: "Default", Seed: 7,
		Rounds: []RoundReport{
			{Round: 1, Obs: &obs.Report{Schema: obs.Schema, Level: "Default"}, Txns: 1},
			{
				Round: 2,
				Obs: &obs.Report{Schema: obs.Schema, Level: "Default",
					Modes: obs.ModeResidency{InterpFraction: 0.0125},
					Escapes: []obs.EscapeCount{
						{Reason: "computed-jump", Count: 4},
						{Reason: "zz-from-a-newer-build", Count: 2},
						{Reason: "aa-from-a-newer-build", Count: 1},
					}},
				Txns:          640,
				ThroughputTPS: 1234.5,
				Latency:       LatencyStats{Count: 640, MeanMs: 0.8, P50Ms: 0.75, P95Ms: 1.5, P99Ms: 2.25, MaxMs: 31},
				MachineStates: MachineStates{Serving: 13, Degraded: 2, Failed: 1},
				PushErrs:      3,
				SourceBreaker: &BreakerSnapshot{State: "half-open", Opens: 2, FastFails: 9, Probes: 1},
			},
		},
	}
	var buf bytes.Buffer
	fr.WritePrometheus(&buf)
	checkGolden(t, "fleet.prom", buf.Bytes())
}
