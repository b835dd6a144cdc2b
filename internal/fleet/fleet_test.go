package fleet

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tnsr/internal/obs"
	"tnsr/internal/pgo"
	"tnsr/internal/profsrv"
	"tnsr/internal/svc"
)

// TestFleetSmall runs a small standard fleet end to end: everything
// serves, nothing is interpreted, the report validates and exports.
func TestFleetSmall(t *testing.T) {
	fr, err := Run(Config{Machines: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
	rr := fr.Final()
	if rr.MachineStates.Serving != 8 {
		t.Fatalf("serving %d of 8: %+v", rr.MachineStates.Serving, rr.Failures)
	}
	if rr.Txns != 8*DefaultTxnsPerMachine {
		t.Fatalf("txns %d", rr.Txns)
	}
	if rr.ThroughputTPS <= 0 {
		t.Fatalf("throughput %g", rr.ThroughputTPS)
	}
	if rr.Latency.Count != rr.Txns || rr.Latency.P99Ms <= 0 {
		t.Fatalf("latency %+v", rr.Latency)
	}
	// The fleet's whole point: the standard image runs translated. ET1 at
	// the default level has no interpreter residency at all.
	if f := rr.Obs.Modes.InterpFraction; f > 0.005 {
		t.Fatalf("interp fraction %g on a pristine fleet", f)
	}
	for _, e := range rr.Obs.Escapes {
		if e.Reason == obs.EscapeUnknown.String() && e.Count > 0 {
			t.Fatalf("unknown escapes: %d", e.Count)
		}
	}

	var prom, text bytes.Buffer
	fr.WritePrometheus(&prom)
	fr.WriteText(&text)
	for _, want := range []string{
		`tnsr_fleet_machines{state="serving"} 8`,
		`tnsr_fleet_escapes_total{reason="unknown"} 0`,
		"tnsr_fleet_throughput_tps",
		`tnsr_fleet_latency_seconds{quantile="0.99"}`,
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("prometheus output missing %q:\n%s", want, prom.String())
		}
	}
	if !strings.Contains(text.String(), "serving 8") {
		t.Errorf("text output:\n%s", text.String())
	}
	if _, err := fr.JSON(); err != nil {
		t.Fatal(err)
	}
}

// TestFleetDeterministic pins seed-reproducibility: two runs with one
// seed must serialize identically.
func TestFleetDeterministic(t *testing.T) {
	run := func() []byte {
		fr, err := Run(Config{Machines: 12, Seed: 7, Traffic: Traffic{Burstiness: 3}})
		if err != nil {
			t.Fatal(err)
		}
		data, err := fr.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed, different reports:\n%s\n----\n%s", a, b)
	}
}

// TestFleetChaosIsolation is the degradation contract under concurrency:
// chaos machines may degrade or fail, but only them — every standard
// machine keeps serving translated, and the fleet aggregate never reports
// fleet-wide degradation or unknown escapes.
func TestFleetChaosIsolation(t *testing.T) {
	const machines, chaosN = 24, 8
	fr, err := Run(Config{
		Machines: machines, ChaosMachines: chaosN,
		Seed: 3, ChaosSeed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
	rr := fr.Final()
	ms := rr.MachineStates
	// Standard machines must all serve: damage cannot spread past the
	// chaos population.
	if ms.Degraded+ms.Failed > chaosN {
		t.Fatalf("%d machines degraded/failed with only %d under chaos: %+v",
			ms.Degraded+ms.Failed, chaosN, rr.Failures)
	}
	if ms.Serving < machines-chaosN {
		t.Fatalf("only %d serving of %d standard machines", ms.Serving, machines-chaosN)
	}
	for _, f := range rr.Failures {
		if f.Machine >= chaosN {
			t.Fatalf("standard machine %d failed: %s", f.Machine, f.Reason)
		}
	}
	// Chaos must actually have bitten something this round — otherwise the
	// isolation assertions above were vacuous.
	if ms.Degraded+ms.Failed == 0 {
		t.Fatalf("no chaos machine degraded; seed exercised nothing")
	}
	// The merged report carries the victims' degradation without declaring
	// the fleet unhealthy: throughput and latency stay populated.
	if rr.Txns == 0 || rr.ThroughputTPS <= 0 {
		t.Fatalf("fleet stopped serving under chaos: %+v", rr)
	}
	for _, e := range rr.Obs.Escapes {
		if e.Reason == obs.EscapeUnknown.String() && e.Count > 0 {
			t.Fatalf("unknown escapes under chaos: %d", e.Count)
		}
	}
}

// TestFleetPGORounds closes the loop through an in-process tnsprofd: the
// fleet pushes captures, the host retranslates under the fetched
// aggregate, and round 2 serves from the shared gen-2 image.
func TestFleetPGORounds(t *testing.T) {
	store, err := profsrv.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv := profsrv.New(profsrv.Config{Store: store,
		Limits: svc.Limits{Token: "fleet-secret", RatePerSec: 1000, RateBurst: 100}})
	fr, err := Run(Config{
		Machines: 12, Rounds: 2, Seed: 9,
		InProc: srv, InProcToken: "fleet-secret",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(fr.Rounds) != 2 {
		t.Fatalf("%d rounds", len(fr.Rounds))
	}
	for _, rr := range fr.Rounds {
		if rr.PushErrs != 0 {
			t.Fatalf("round %d: %d push errors", rr.Round, rr.PushErrs)
		}
		if rr.MachineStates.Serving != 12 {
			t.Fatalf("round %d: %d serving: %+v", rr.Round, rr.MachineStates.Serving, rr.Failures)
		}
	}
	// The service holds the fleet's merged aggregate: one run per serving
	// machine per round.
	fps, err := store.List()
	if err != nil || len(fps) != 1 {
		t.Fatalf("store fingerprints %v, err %v", fps, err)
	}
	agg, err := store.Load(fps[0])
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * 12); agg.Runs != want {
		t.Fatalf("aggregate runs %d, want %d", agg.Runs, want)
	}
}

// TestFleetThousandMachines is the scale acceptance run: a 1000-machine
// fleet, each machine a live goroutine with private interpreter/simulator
// state over the one shared image, completes and aggregates coherently.
// (Under -race this is also the strongest shared-image race probe in the
// repo.)
func TestFleetThousandMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-machine fleet skipped in -short mode")
	}
	const machines = 1000
	fr, err := Run(Config{Machines: machines, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := fr.Validate(); err != nil {
		t.Fatal(err)
	}
	rr := fr.Final()
	if rr.MachineStates.Serving != machines {
		t.Fatalf("serving %d of %d: %+v", rr.MachineStates.Serving, machines, rr.Failures)
	}
	if rr.Txns != machines*DefaultTxnsPerMachine {
		t.Fatalf("txns %d", rr.Txns)
	}
	if f := rr.Obs.Modes.InterpFraction; f > 0.005 {
		t.Fatalf("interp fraction %g", f)
	}
	if rr.Latency.Count != rr.Txns {
		t.Fatalf("latency count %d for %d txns", rr.Latency.Count, rr.Txns)
	}
}

// TestReportMergeHonorsFailures pins aggregateRound's bookkeeping: failed
// machines contribute nothing to txns, latency or telemetry.
func TestReportMergeHonorsFailures(t *testing.T) {
	cfg := &Config{}
	cfg.fill()
	okRep := func() *obs.Report {
		return &obs.Report{Schema: obs.Schema, Workload: "et1", Level: "Default",
			Modes: obs.ModeResidency{RISCInstrs: 100, RISCCycles: 100, TotalCycles: 100}}
	}
	lat := &Hist{}
	lat.Record(5e6)
	results := []*machineResult{
		{id: 0, state: Serving, report: okRep(), txns: 2, elapsed: 1, lat: lat, capture: &pgo.Profile{}},
		{id: 1, state: Failed, stateReason: "boom"},
		{id: 2, state: Degraded, report: okRep(), txns: 2, elapsed: 2, lat: lat},
	}
	rr, captures := aggregateRound(cfg, 1, results)
	if rr.MachineStates.Serving != 1 || rr.MachineStates.Failed != 1 || rr.MachineStates.Degraded != 1 {
		t.Fatalf("states %+v", rr.MachineStates)
	}
	if rr.Txns != 4 {
		t.Fatalf("txns %d", rr.Txns)
	}
	if len(captures) != 1 { // degraded machines don't advise the fleet
		t.Fatalf("%d captures", len(captures))
	}
	if rr.Obs.Modes.RISCInstrs != 200 {
		t.Fatalf("merged instrs %d", rr.Obs.Modes.RISCInstrs)
	}
	if len(rr.Failures) != 1 || rr.Failures[0].Machine != 1 {
		t.Fatalf("failures %+v", rr.Failures)
	}
}

// TestFleetReportValidateRejects breaks one invariant of a valid report
// per case, on a fresh copy, and requires Validate to name it.
func TestFleetReportValidateRejects(t *testing.T) {
	fr, err := Run(Config{Machines: 4, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	good, err := fr.JSON()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, want string
		mutate     func(*FleetReport)
	}{
		{"schema", "schema", func(r *FleetReport) { r.Schema = "tnsr/fleet-report/v0" }},
		{"state sum", "states", func(r *FleetReport) { r.Rounds[0].MachineStates.Serving++ }},
		{"failure count", "failures for", func(r *FleetReport) {
			ms := &r.Rounds[0].MachineStates
			ms.Serving--
			ms.Failed++
		}},
		{"quantile order", "quantiles out of order", func(r *FleetReport) {
			l := &r.Rounds[0].Latency
			l.P95Ms = l.P99Ms + 1
		}},
		{"negative throughput", "negative throughput", func(r *FleetReport) { r.Rounds[0].ThroughputTPS = -1 }},
	}
	for _, c := range cases {
		var r FleetReport
		if err := json.Unmarshal(good, &r); err != nil {
			t.Fatal(err)
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("%s: the unbroken copy fails: %v", c.name, err)
		}
		c.mutate(&r)
		if err := r.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}
