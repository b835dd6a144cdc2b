package fleet

import (
	"encoding/json"
	"fmt"
	"io"

	"tnsr/internal/obs"
)

// FleetSchema identifies the fleet report JSON format; bump on
// incompatible change.
const FleetSchema = "tnsr/fleet-report/v1"

// FleetReport is one whole fleet run: configuration echo plus one
// RoundReport per round. The last round is the fleet's final state.
type FleetReport struct {
	Schema         string `json:"schema"`
	Workload       string `json:"workload"`
	Machines       int    `json:"machines"`
	TxnsPerMachine int    `json:"txns_per_machine"`
	ChaosMachines  int    `json:"chaos_machines,omitempty"`
	Level          string `json:"level"`
	Seed           int64  `json:"seed"`

	Rounds []RoundReport `json:"rounds"`
}

// RoundReport aggregates one round across every machine.
type RoundReport struct {
	Round int `json:"round"`

	// Obs is the merged telemetry of every machine that served (Serving
	// and Degraded); Failed machines are withheld.
	Obs *obs.Report `json:"obs"`

	Txns          int64        `json:"txns"`
	ThroughputTPS float64      `json:"throughput_tps"`
	Latency       LatencyStats `json:"latency"`

	MachineStates MachineStates    `json:"machine_states"`
	Failures      []MachineFailure `json:"failures,omitempty"`

	PushErrs    int   `json:"push_errs,omitempty"`
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`

	// SourceBreaker snapshots the shared profile-source circuit breaker at
	// the end of the round; nil when no profile source is configured.
	// Counters are cumulative across rounds.
	SourceBreaker *BreakerSnapshot `json:"source_breaker,omitempty"`
}

// BreakerSnapshot is one circuit breaker's end-of-round view.
type BreakerSnapshot struct {
	State     string `json:"state"`
	Opens     int64  `json:"opens"`
	FastFails int64  `json:"fast_fails"`
	Probes    int64  `json:"probes"`
}

// MachineStates counts machines by end-of-round state.
type MachineStates struct {
	Serving  int `json:"serving"`
	Degraded int `json:"degraded"`
	Failed   int `json:"failed"`
}

// MachineFailure names one machine the fleet withheld and why.
type MachineFailure struct {
	Machine int    `json:"machine"`
	Reason  string `json:"reason"`
}

// LatencyStats summarizes the merged per-transaction latency histogram,
// in milliseconds of simulated time.
type LatencyStats struct {
	Count  int64   `json:"count"`
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

func latencyStats(h *Hist) LatencyStats {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	return LatencyStats{
		Count:  h.Count(),
		MeanMs: h.Mean() / 1e6,
		P50Ms:  ms(h.Quantile(0.50)),
		P95Ms:  ms(h.Quantile(0.95)),
		P99Ms:  ms(h.Quantile(0.99)),
		MaxMs:  ms(h.Max()),
	}
}

// Validate checks the report's cross-field invariants; the JSON writer
// refuses to emit a report that fails them.
func (fr *FleetReport) Validate() error {
	if fr.Schema != FleetSchema {
		return fmt.Errorf("fleet: schema %q, want %q", fr.Schema, FleetSchema)
	}
	if fr.Machines < 1 {
		return fmt.Errorf("fleet: %d machines", fr.Machines)
	}
	if len(fr.Rounds) == 0 {
		return fmt.Errorf("fleet: no rounds")
	}
	for i, rr := range fr.Rounds {
		if rr.Round != i+1 {
			return fmt.Errorf("fleet: round %d numbered %d", i+1, rr.Round)
		}
		ms := rr.MachineStates
		if ms.Serving+ms.Degraded+ms.Failed != fr.Machines {
			return fmt.Errorf("fleet: round %d states %d+%d+%d != %d machines",
				rr.Round, ms.Serving, ms.Degraded, ms.Failed, fr.Machines)
		}
		if len(rr.Failures) != ms.Failed {
			return fmt.Errorf("fleet: round %d lists %d failures for %d failed machines",
				rr.Round, len(rr.Failures), ms.Failed)
		}
		if rr.Txns < 0 || rr.ThroughputTPS < 0 {
			return fmt.Errorf("fleet: round %d negative throughput", rr.Round)
		}
		l := rr.Latency
		if l.P50Ms > l.P95Ms || l.P95Ms > l.P99Ms || l.P99Ms > l.MaxMs {
			return fmt.Errorf("fleet: round %d latency quantiles out of order (%g/%g/%g/%g)",
				rr.Round, l.P50Ms, l.P95Ms, l.P99Ms, l.MaxMs)
		}
		if rr.Obs == nil {
			return fmt.Errorf("fleet: round %d has no merged report", rr.Round)
		}
		if err := obs.Validate(rr.Obs); err != nil {
			return fmt.Errorf("fleet: round %d: %w", rr.Round, err)
		}
	}
	return nil
}

// JSON renders the validated report.
func (fr *FleetReport) JSON() ([]byte, error) {
	if err := fr.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(fr, "", "  ")
}

// Final returns the last round — the fleet's current state.
func (fr *FleetReport) Final() *RoundReport {
	if len(fr.Rounds) == 0 {
		return nil
	}
	return &fr.Rounds[len(fr.Rounds)-1]
}

// WriteText renders the human-readable fleet summary.
func (fr *FleetReport) WriteText(w io.Writer) {
	fmt.Fprintf(w, "fleet: %d machines x %d %s txns, level %s, seed %d\n",
		fr.Machines, fr.TxnsPerMachine, fr.Workload, fr.Level, fr.Seed)
	if fr.ChaosMachines > 0 {
		fmt.Fprintf(w, "chaos: %d machines under mutation\n", fr.ChaosMachines)
	}
	for _, rr := range fr.Rounds {
		ms := rr.MachineStates
		fmt.Fprintf(w, "round %d: %d txns  %.1f txn/s  serving %d  degraded %d  failed %d\n",
			rr.Round, rr.Txns, rr.ThroughputTPS, ms.Serving, ms.Degraded, ms.Failed)
		l := rr.Latency
		fmt.Fprintf(w, "  latency ms: mean %.3f  p50 %.3f  p95 %.3f  p99 %.3f  max %.3f\n",
			l.MeanMs, l.P50Ms, l.P95Ms, l.P99Ms, l.MaxMs)
		m := rr.Obs.Modes
		fmt.Fprintf(w, "  modes: %.2f%% interpreted  %d interludes  %d switches\n",
			100*m.InterpFraction, m.Interludes, m.Switches)
		for _, e := range rr.Obs.Escapes {
			fmt.Fprintf(w, "  escape %-14s %d\n", e.Reason, e.Count)
		}
		for _, f := range rr.Failures {
			fmt.Fprintf(w, "  failed machine %d: %s\n", f.Machine, f.Reason)
		}
	}
}

// WritePrometheus renders the final round in the Prometheus text
// exposition format: the tnsfleetd /metrics surface. Every escape reason
// in the enum is emitted — including zero counts — so an alert (or the CI
// smoke grep) can assert `tnsr_fleet_escapes_total{reason="unknown"} 0`
// rather than inferring health from absence.
func (fr *FleetReport) WritePrometheus(w io.Writer) {
	rr := fr.Final()
	if rr == nil {
		return
	}
	p := obs.NewProm(w)
	p.Family("tnsr_fleet_info", "gauge", "Fleet identity (constant 1).")
	p.Sample(1, "workload", fr.Workload, "level", fr.Level)

	p.Family("tnsr_fleet_machines", "gauge", "Machines by end-of-round state.")
	ms := rr.MachineStates
	p.Sample(ms.Serving, "state", "serving")
	p.Sample(ms.Degraded, "state", "degraded")
	p.Sample(ms.Failed, "state", "failed")

	p.Gauge("tnsr_fleet_round", "Completed fleet rounds.", rr.Round)
	p.Counter("tnsr_fleet_txns_total", "Transactions served in the final round.", rr.Txns)
	p.Gauge("tnsr_fleet_throughput_tps", "Aggregate fleet throughput, transactions per simulated second.", rr.ThroughputTPS)

	p.Family("tnsr_fleet_latency_seconds", "gauge", "Per-transaction latency quantiles, simulated seconds.")
	l := rr.Latency
	p.Sample(l.P50Ms/1e3, "quantile", "0.5")
	p.Sample(l.P95Ms/1e3, "quantile", "0.95")
	p.Sample(l.P99Ms/1e3, "quantile", "0.99")
	p.Gauge("tnsr_fleet_latency_seconds_max", "Worst per-transaction latency, simulated seconds.", l.MaxMs/1e3)

	p.Gauge("tnsr_fleet_interp_fraction", "Fleet-wide fraction of cycles spent in interpreter mode.", rr.Obs.Modes.InterpFraction)

	p.Family("tnsr_fleet_escapes_total", "counter", "Fleet-wide escapes from translated code by reason.")
	counts := map[string]int64{}
	for _, e := range rr.Obs.Escapes {
		counts[e.Reason] = e.Count
	}
	for r := obs.EscapeReason(0); r < obs.NumEscapeReasons; r++ {
		name := r.String()
		p.Sample(counts[name], "reason", name)
		delete(counts, name)
	}
	// Out-of-enum names survive merges; expose them too, in stable order.
	p.Sorted("reason", counts)

	p.Counter("tnsr_fleet_push_errors_total", "Profile pushes that failed in the final round.", rr.PushErrs)

	if sb := rr.SourceBreaker; sb != nil {
		state := 0
		switch sb.State {
		case "open":
			state = 1
		case "half-open":
			state = 2
		}
		p.Gauge("tnsr_fleet_source_breaker_state",
			"Profile-source circuit breaker state (0 closed, 1 open, 2 half-open).", state)
		p.Counter("tnsr_fleet_source_breaker_opens_total",
			"Times the profile-source breaker tripped open.", sb.Opens)
		p.Counter("tnsr_fleet_source_fastfails_total",
			"Profile-source calls refused by an open breaker.", sb.FastFails)
	}
}
