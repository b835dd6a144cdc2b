package bench

import (
	"fmt"
	"strings"

	"tnsr/internal/backend"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
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
// phase (delay slots, stall avoidance). be is the target translated for,
// nil meaning the MIPS/R3000 default; every variant's outcome is checked
// against the interpreter's.
func Ablate(name string, iterations int, be backend.Backend) ([]AblationRow, error) {
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
	w, _, want, err := interpretWorkload(name, iterations)
	if err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, v := range variants {
		opts := core.Options{Level: codefile.LevelDefault, Backend: be}
		v.mod(&opts)
		r, err := runTranslated(w, opts, want)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", v.label, err)
		}
		total, _, _ := r.Cycles()
		st := r.User.Accel.Stats
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
