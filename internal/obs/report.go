package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Schema identifies the JSON report format; bump on incompatible change.
const Schema = "tnsr/obs-report/v1"

// Report is the assembled telemetry of one run: the recorder's counters
// plus the runner-priced cycle split (filled by xrun.Runner.Report). It is
// the unit all three exporters consume.
type Report struct {
	Schema   string `json:"schema"`
	Workload string `json:"workload,omitempty"`
	Level    string `json:"level"`

	Modes   ModeResidency   `json:"modes"`
	Escapes []EscapeCount   `json:"escapes"`
	Sites   []EscapeSite    `json:"escape_sites,omitempty"`
	PMap    PMapStats       `json:"pmap"`
	Procs   []ProcResidency `json:"procs"`
	Phases  []PhaseTiming   `json:"translation_phases"`

	// Degradation: set when the runner refused or abandoned translated
	// code. Degraded means a whole acceleration section failed
	// verification and the run was fully interpreted; Quarantined lists
	// procedures individually demoted to the interpreter after repeated
	// unexpected traps.
	Degraded       bool              `json:"degraded,omitempty"`
	DegradedReason string            `json:"degraded_reason,omitempty"`
	Quarantined    []QuarantinedProc `json:"quarantined,omitempty"`
}

// QuarantinedProc is one procedure demoted to interpreter-only execution
// after its RISC fragment produced a trap storm.
type QuarantinedProc struct {
	Name  string `json:"name"`
	Space string `json:"space"`
	Traps int64  `json:"traps"`
}

// ModeResidency splits the run between translated RISC code and
// interpreter interludes, in instructions and in Cyclone/R cycles — the
// paper's "% time interpreted" framing.
type ModeResidency struct {
	RISCInstrs     int64   `json:"risc_instrs"`
	InterpInstrs   int64   `json:"interp_instrs"`
	RISCCycles     float64 `json:"risc_cycles"`
	InterpCycles   float64 `json:"interp_cycles"`
	TotalCycles    float64 `json:"total_cycles"`
	InterpFraction float64 `json:"interp_fraction"`
	Interludes     int64   `json:"interludes"`
	RISCEntries    int64   `json:"risc_entries"`
	Switches       int64   `json:"switches"`
}

// EscapeCount is one row of the escape-reason histogram.
type EscapeCount struct {
	Reason string `json:"reason"`
	Count  int64  `json:"count"`
}

// EscapeSite is one escape location, hottest first.
type EscapeSite struct {
	Space  string `json:"space"`
	Addr   uint16 `json:"addr"`
	Reason string `json:"reason"`
	Count  int64  `json:"count"`
}

// PMapStats reports host-side PMap probe counters.
type PMapStats struct {
	Lookups int64   `json:"lookups"`
	Hits    int64   `json:"hits"`
	HitRate float64 `json:"hit_rate"`
}

// ProcResidency is one procedure's per-mode instruction counts.
type ProcResidency struct {
	Name         string `json:"name"`
	Space        string `json:"space"`
	RISCInstrs   int64  `json:"risc_instrs"`
	InterpInstrs int64  `json:"interp_instrs"`
}

// PhaseTiming is one translation phase's accumulated wall time.
type PhaseTiming struct {
	Phase   string  `json:"phase"`
	Seconds float64 `json:"seconds"`
}

var spaceLabels = [2]string{"user", "lib"}

// Report assembles the recorder's counters into a Report. Cycle pricing
// (RISCCycles, InterpCycles, InterpFraction, Switches) and the workload and
// level names belong to the runner; xrun.Runner.Report fills them in.
func (r *Recorder) Report() *Report {
	rep := &Report{
		Schema: Schema,
		Level:  "None",
		Modes: ModeResidency{
			RISCInstrs:   r.RISCInstrs,
			InterpInstrs: r.InterpInstrs,
			Interludes:   r.InterpEntries,
			RISCEntries:  r.RISCEntries,
		},
		PMap: PMapStats{Lookups: r.PMapLookups, Hits: r.PMapHits},
	}
	if r.PMapLookups > 0 {
		rep.PMap.HitRate = float64(r.PMapHits) / float64(r.PMapLookups)
	}
	for reason, n := range r.Escapes {
		if n > 0 {
			rep.Escapes = append(rep.Escapes,
				EscapeCount{Reason: EscapeReason(reason).String(), Count: n})
		}
	}
	for _, s := range r.sites {
		rep.Sites = append(rep.Sites, EscapeSite{
			Space:  spaceLabels[s.space&1],
			Addr:   s.addr,
			Reason: s.reason.String(),
			Count:  s.count,
		})
	}
	sort.Slice(rep.Sites, func(i, j int) bool {
		if rep.Sites[i].Count != rep.Sites[j].Count {
			return rep.Sites[i].Count > rep.Sites[j].Count
		}
		if rep.Sites[i].Space != rep.Sites[j].Space {
			return rep.Sites[i].Space < rep.Sites[j].Space
		}
		return rep.Sites[i].Addr < rep.Sites[j].Addr
	})
	for i, c := range r.counts {
		if c.interp == 0 && c.risc == 0 {
			continue
		}
		p := r.attr.procs[i]
		rep.Procs = append(rep.Procs, ProcResidency{
			Name: p.name, Space: p.space,
			RISCInstrs: c.risc, InterpInstrs: c.interp,
		})
	}
	sort.Slice(rep.Procs, func(i, j int) bool {
		ti := rep.Procs[i].RISCInstrs + rep.Procs[i].InterpInstrs
		tj := rep.Procs[j].RISCInstrs + rep.Procs[j].InterpInstrs
		if ti != tj {
			return ti > tj
		}
		return rep.Procs[i].Name < rep.Procs[j].Name
	})
	for i, name := range r.phaseNames {
		rep.Phases = append(rep.Phases,
			PhaseTiming{Phase: name, Seconds: r.phaseDur[i].Seconds()})
	}
	return rep
}

// WriteText renders the human-readable report: the paper's "% time
// interpreted" framing first, then the escape histogram, PMap counters,
// per-procedure residency and translation-phase timings. top bounds the
// escape-site and procedure listings (0 means all).
func (rep *Report) WriteText(w io.Writer, top int) {
	name := rep.Workload
	if name == "" {
		name = "(run)"
	}
	fmt.Fprintf(w, "tnsprof — %s (accel %s)\n", name, rep.Level)
	if rep.Degraded {
		fmt.Fprintf(w, "  DEGRADED: running fully interpreted — %s\n", rep.DegradedReason)
	}
	m := rep.Modes
	fmt.Fprintf(w, "\nMode residency (Cyclone/R cycles):\n")
	fmt.Fprintf(w, "  translated RISC    %14.0f cycles  (%.3f%%)\n",
		m.RISCCycles, pct(m.RISCCycles, m.TotalCycles))
	fmt.Fprintf(w, "  interpreter mode   %14.0f cycles  (%.3f%% time interpreted)\n",
		m.InterpCycles, m.InterpFraction*100)
	fmt.Fprintf(w, "  instructions: %d RISC, %d interpreted; %d interludes, %d switches\n",
		m.RISCInstrs, m.InterpInstrs, m.Interludes, m.Switches)

	fmt.Fprintf(w, "\nEscape reasons:\n")
	if len(rep.Escapes) == 0 {
		fmt.Fprintf(w, "  (none)\n")
	}
	for _, e := range rep.Escapes {
		fmt.Fprintf(w, "  %-14s %8d\n", e.Reason, e.Count)
	}
	if n := len(rep.Sites); n > 0 {
		fmt.Fprintf(w, "\nHottest escape sites:\n")
		for i, s := range rep.Sites {
			if top > 0 && i >= top {
				fmt.Fprintf(w, "  ... %d more\n", n-i)
				break
			}
			fmt.Fprintf(w, "  %s:%-6d %-14s %8d\n", s.Space, s.Addr, s.Reason, s.Count)
		}
	}

	fmt.Fprintf(w, "\nPMap (host-side probes): %d lookups, %d hits (%.1f%%)\n",
		rep.PMap.Lookups, rep.PMap.Hits, rep.PMap.HitRate*100)

	if len(rep.Procs) > 0 {
		fmt.Fprintf(w, "\nPer-procedure residency (by instructions):\n")
		fmt.Fprintf(w, "  %-20s %-6s %12s %12s %9s\n",
			"procedure", "space", "risc", "interp", "%interp")
		for i, p := range rep.Procs {
			if top > 0 && i >= top {
				fmt.Fprintf(w, "  ... %d more\n", len(rep.Procs)-i)
				break
			}
			fmt.Fprintf(w, "  %-20s %-6s %12d %12d %8.2f%%\n",
				p.Name, p.Space, p.RISCInstrs, p.InterpInstrs,
				pct(float64(p.InterpInstrs), float64(p.RISCInstrs+p.InterpInstrs)))
		}
	}

	if len(rep.Quarantined) > 0 {
		fmt.Fprintf(w, "\nQuarantined procedures (trap storm, demoted to interpreter):\n")
		for _, q := range rep.Quarantined {
			fmt.Fprintf(w, "  %-20s %-6s %8d traps\n", q.Name, q.Space, q.Traps)
		}
	}

	if len(rep.Phases) > 0 {
		fmt.Fprintf(w, "\nTranslation phases:\n")
		for _, p := range rep.Phases {
			fmt.Fprintf(w, "  %-10s %10.3f ms\n", p.Phase, p.Seconds*1e3)
		}
	}
	fmt.Fprintln(w, strings.Repeat("-", 60))
}

func pct(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole * 100
}

// MixedLabel is the workload/level name a merged report carries when its
// inputs disagree.
const MixedLabel = "(mixed)"

// Merge folds other into rep: counter fields sum, histograms merge by key,
// derived ratios (interp_fraction, pmap hit_rate) are recomputed from the
// merged counters, and the listings come out in the same canonical order
// Report() emits, so merging is order-independent up to float summation.
// It is the fleet host's cross-machine aggregation primitive: one machine's
// report merged per machine yields the fleet-wide view, and the result
// still satisfies Validate whenever the inputs do.
//
// Workload and Level keep their value when both sides agree and become
// MixedLabel otherwise. Degraded is an OR (the merged report covers at
// least one fully-degraded run) with the reasons joined. Per-procedure
// residency is kept only when every input carries it (or the side lacking
// it executed nothing): partial attribution cannot reconcile with the
// summed mode totals, so it is dropped rather than emitted inconsistent.
func (rep *Report) Merge(other *Report) error {
	if rep.Schema != Schema {
		return fmt.Errorf("obs: merge into schema %q, want %q", rep.Schema, Schema)
	}
	if other.Schema != Schema {
		return fmt.Errorf("obs: merge from schema %q, want %q", other.Schema, Schema)
	}
	if rep.Workload != other.Workload {
		rep.Workload = MixedLabel
	}
	if rep.Level != other.Level {
		rep.Level = MixedLabel
	}

	repPreInstrs := rep.Modes.RISCInstrs + rep.Modes.InterpInstrs
	otherInstrs := other.Modes.RISCInstrs + other.Modes.InterpInstrs

	rep.Modes.RISCInstrs += other.Modes.RISCInstrs
	rep.Modes.InterpInstrs += other.Modes.InterpInstrs
	rep.Modes.RISCCycles += other.Modes.RISCCycles
	rep.Modes.InterpCycles += other.Modes.InterpCycles
	rep.Modes.TotalCycles += other.Modes.TotalCycles
	rep.Modes.Interludes += other.Modes.Interludes
	rep.Modes.RISCEntries += other.Modes.RISCEntries
	rep.Modes.Switches += other.Modes.Switches
	rep.Modes.InterpFraction = 0
	if rep.Modes.TotalCycles > 0 {
		rep.Modes.InterpFraction = rep.Modes.InterpCycles / rep.Modes.TotalCycles
	}

	byReason := map[string]int64{}
	for _, e := range rep.Escapes {
		byReason[e.Reason] += e.Count
	}
	for _, e := range other.Escapes {
		byReason[e.Reason] += e.Count
	}
	rep.Escapes = rep.Escapes[:0]
	for r := EscapeReason(0); r < NumEscapeReasons; r++ {
		if n := byReason[r.String()]; n > 0 {
			rep.Escapes = append(rep.Escapes, EscapeCount{Reason: r.String(), Count: n})
			delete(byReason, r.String())
		}
	}
	// Unknown-name reasons: preserved (they must keep failing Validate),
	// in sorted order so merging stays deterministic.
	leftover := make([]string, 0, len(byReason))
	for reason := range byReason {
		leftover = append(leftover, reason)
	}
	sort.Strings(leftover)
	for _, reason := range leftover {
		rep.Escapes = append(rep.Escapes, EscapeCount{Reason: reason, Count: byReason[reason]})
	}

	type siteKey struct {
		space, reason string
		addr          uint16
	}
	bySite := map[siteKey]int64{}
	for _, s := range rep.Sites {
		bySite[siteKey{s.Space, s.Reason, s.Addr}] += s.Count
	}
	for _, s := range other.Sites {
		bySite[siteKey{s.Space, s.Reason, s.Addr}] += s.Count
	}
	rep.Sites = rep.Sites[:0]
	for k, n := range bySite {
		rep.Sites = append(rep.Sites, EscapeSite{Space: k.space, Addr: k.addr, Reason: k.reason, Count: n})
	}
	sort.Slice(rep.Sites, func(i, j int) bool {
		if rep.Sites[i].Count != rep.Sites[j].Count {
			return rep.Sites[i].Count > rep.Sites[j].Count
		}
		if rep.Sites[i].Space != rep.Sites[j].Space {
			return rep.Sites[i].Space < rep.Sites[j].Space
		}
		if rep.Sites[i].Addr != rep.Sites[j].Addr {
			return rep.Sites[i].Addr < rep.Sites[j].Addr
		}
		return rep.Sites[i].Reason < rep.Sites[j].Reason
	})

	rep.PMap.Lookups += other.PMap.Lookups
	rep.PMap.Hits += other.PMap.Hits
	rep.PMap.HitRate = 0
	if rep.PMap.Lookups > 0 {
		rep.PMap.HitRate = float64(rep.PMap.Hits) / float64(rep.PMap.Lookups)
	}

	repHasProcs := len(rep.Procs) > 0
	otherHasProcs := len(other.Procs) > 0
	proclessExecuted := (!repHasProcs && repPreInstrs > 0) ||
		(!otherHasProcs && otherInstrs > 0)
	switch {
	case !repHasProcs && !otherHasProcs:
		// nothing to do
	case repHasProcs != otherHasProcs && proclessExecuted:
		// One side has attribution, the other executed instructions without
		// it: per-proc sums can no longer reconcile with the merged totals.
		rep.Procs = nil
	default:
		type procKey struct{ name, space string }
		idx := map[procKey]int{}
		merged := make([]ProcResidency, 0, len(rep.Procs)+len(other.Procs))
		addAll := func(ps []ProcResidency) {
			for _, p := range ps {
				k := procKey{p.Name, p.Space}
				if i, ok := idx[k]; ok {
					merged[i].RISCInstrs += p.RISCInstrs
					merged[i].InterpInstrs += p.InterpInstrs
				} else {
					idx[k] = len(merged)
					merged = append(merged, p)
				}
			}
		}
		addAll(rep.Procs)
		addAll(other.Procs)
		sort.Slice(merged, func(i, j int) bool {
			ti := merged[i].RISCInstrs + merged[i].InterpInstrs
			tj := merged[j].RISCInstrs + merged[j].InterpInstrs
			if ti != tj {
				return ti > tj
			}
			if merged[i].Name != merged[j].Name {
				return merged[i].Name < merged[j].Name
			}
			return merged[i].Space < merged[j].Space
		})
		rep.Procs = merged
	}

	for _, p := range other.Phases {
		found := false
		for i := range rep.Phases {
			if rep.Phases[i].Phase == p.Phase {
				rep.Phases[i].Seconds += p.Seconds
				found = true
				break
			}
		}
		if !found {
			rep.Phases = append(rep.Phases, p)
		}
	}

	if other.Degraded {
		rep.Degraded = true
		switch {
		case rep.DegradedReason == "":
			rep.DegradedReason = other.DegradedReason
		case other.DegradedReason != "" && other.DegradedReason != rep.DegradedReason:
			rep.DegradedReason += "; " + other.DegradedReason
		}
	}

	type quarKey struct{ name, space string }
	qidx := map[quarKey]int{}
	for i, q := range rep.Quarantined {
		qidx[quarKey{q.Name, q.Space}] = i
	}
	for _, q := range other.Quarantined {
		k := quarKey{q.Name, q.Space}
		if i, ok := qidx[k]; ok {
			rep.Quarantined[i].Traps += q.Traps
		} else {
			qidx[k] = len(rep.Quarantined)
			rep.Quarantined = append(rep.Quarantined, q)
		}
	}
	sort.Slice(rep.Quarantined, func(i, j int) bool {
		if rep.Quarantined[i].Space != rep.Quarantined[j].Space {
			return rep.Quarantined[i].Space < rep.Quarantined[j].Space
		}
		return rep.Quarantined[i].Name < rep.Quarantined[j].Name
	})
	return nil
}
