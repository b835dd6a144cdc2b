package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// BenchSchema tags the machine-readable benchmark records benchtab emits
// with -jsondir, one BENCH_<workload>.json per workload.
const BenchSchema = "tnsr/bench-record/v1"

// BenchRecord is one (workload, mode) measurement. NsPerOp is the modeled
// Cyclone/R wall time for the measured run, in nanoseconds; InterpPct is
// the share of that time spent in interpreter mode.
type BenchRecord struct {
	Schema    string  `json:"schema"`
	Workload  string  `json:"workload"`
	Mode      string  `json:"mode"` // "interpreted" or "accel-<level>"
	NsPerOp   float64 `json:"ns_per_op"`
	InterpPct float64 `json:"interp_pct"`
}

// BenchRecords flattens a measured row into per-mode records: the software
// interpreter plus each acceleration level.
func BenchRecords(row *Row) []BenchRecord {
	recs := []BenchRecord{{
		Schema:    BenchSchema,
		Workload:  row.Name,
		Mode:      "interpreted",
		NsPerOp:   row.InterpTime * 1e9,
		InterpPct: 100,
	}}
	for _, lvl := range Levels {
		recs = append(recs, BenchRecord{
			Schema:    BenchSchema,
			Workload:  row.Name,
			Mode:      "accel-" + lvl.String(),
			NsPerOp:   row.AccelTime[lvl] * 1e9,
			InterpPct: 100 * row.InterpFrac[lvl],
		})
	}
	return recs
}

// WriteBenchJSON writes one BENCH_<workload>.json per row into dir,
// creating it if needed. Each file holds the row's records as a JSON array.
func WriteBenchJSON(dir string, rows []*Row) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, row := range rows {
		data, err := json.MarshalIndent(BenchRecords(row), "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fmt.Sprintf("BENCH_%s.json", row.Name))
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// ValidateBenchRecords checks a parsed BENCH_*.json payload the same way
// obs.Validate checks execution reports: schema tag, plausible ranges, and
// one record per execution mode.
func ValidateBenchRecords(recs []BenchRecord) error {
	if len(recs) != 1+len(Levels) {
		return fmt.Errorf("want %d records, got %d", 1+len(Levels), len(recs))
	}
	for _, r := range recs {
		if r.Schema != BenchSchema {
			return fmt.Errorf("schema %q != %q", r.Schema, BenchSchema)
		}
		if r.Workload == "" || r.Mode == "" {
			return fmt.Errorf("record missing workload or mode: %+v", r)
		}
		if r.NsPerOp < 0 {
			return fmt.Errorf("%s/%s: negative ns/op", r.Workload, r.Mode)
		}
		if r.InterpPct < 0 || r.InterpPct > 100 {
			return fmt.Errorf("%s/%s: interp_pct %g out of range", r.Workload, r.Mode, r.InterpPct)
		}
	}
	return nil
}
