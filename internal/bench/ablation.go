package bench

import (
	"fmt"
	"strings"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/workloads"
	"tnsr/internal/xrun"
)

// AblationRow quantifies one disabled optimization.
type AblationRow struct {
	Name      string
	Cycles    float64
	Expansion float64
}

// Ablate measures the design choices the paper names as the Accelerator's
// major optimization effects, by turning each off and re-measuring
// Dhrystone: dead flag elision ("the most important one"), common
// subexpression reuse of fetches and addresses, and the final scheduling
// phase (delay slots, stall avoidance).
func Ablate(name string, iterations int) ([]AblationRow, error) {
	variants := []struct {
		label string
		mod   func(*core.Options)
	}{
		{"Default (all optimizations)", func(o *core.Options) {}},
		{"no dead-flag elision", func(o *core.Options) { o.DisableFlagElision = true }},
		{"no CSE (fetches/addresses)", func(o *core.Options) { o.DisableCSE = true }},
		{"no scheduling (delay slots)", func(o *core.Options) { o.DisableSchedule = true }},
		{"none of the above", func(o *core.Options) {
			o.DisableFlagElision = true
			o.DisableCSE = true
			o.DisableSchedule = true
		}},
	}
	var rows []AblationRow
	var want *xrun.Outcome
	for _, v := range variants {
		w := workloads.MustBuild(name, iterations)
		opts := core.Options{Level: codefile.LevelDefault, LibSummaries: w.LibSummaries}
		v.mod(&opts)
		if err := core.Accelerate(w.User, opts); err != nil {
			return nil, fmt.Errorf("%s: %w", v.label, err)
		}
		if w.Lib != nil {
			libOpts := core.Options{Level: codefile.LevelDefault, CodeBase: 0x80000, Space: 1}
			v.mod(&libOpts)
			if err := core.Accelerate(w.Lib, libOpts); err != nil {
				return nil, err
			}
		}
		r, err := RunAccelerated(w)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.label, err)
		}
		if want == nil {
			want = r.Outcome()
		} else if err := want.Check(r.Outcome()); err != nil {
			return nil, fmt.Errorf("%s: outcome changed: %w", v.label, err)
		}
		total, _, _ := r.Cycles()
		st := w.User.Accel.Stats
		rows = append(rows, AblationRow{
			Name:      v.label,
			Cycles:    total,
			Expansion: float64(st.RISCInstrs) / float64(st.TNSInstrs),
		})
	}
	return rows, nil
}

// AblationTable renders the ablation as text.
func AblationTable(name string, rows []AblationRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation (%s, Default level): cost of disabling each optimization\n\n", name)
	fmt.Fprintf(&b, "%-30s %12s %9s %11s\n", "Variant", "cycles", "slowdown", "expansion")
	base := rows[0]
	for _, r := range rows {
		fmt.Fprintf(&b, "%-30s %12.0f %8.1f%% %11.2f\n",
			r.Name, r.Cycles, 100*(r.Cycles/base.Cycles-1), r.Expansion)
	}
	return b.String()
}
