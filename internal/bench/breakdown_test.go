package bench

import (
	"testing"

	"tnsr/internal/core"
	"tnsr/internal/risc"
	"tnsr/internal/workloads"
	"tnsr/internal/xrun"
)

// TestDebugCycleBreakdown accounts for every simulated MIPS cycle of each
// paper workload at each level: one per instruction, the load-use and
// multiply/divide stalls, the miss penalty per instruction- and
// data-cache miss, and xrun's penalty per mode switch. A cycle charged
// anywhere else, or a counter that misses one, breaks the identity.
func TestDebugCycleBreakdown(t *testing.T) {
	iters := map[string]int{"dhry16": 10, "dhry32": 10, "tal": 1, "axcel": 1, "et1": 3}
	penalty := int64(CycloneRConfig().MissPenalty)
	for _, name := range workloads.Names {
		w, _, want, err := interpretWorkload(name, iters[name])
		if err != nil {
			t.Fatal(err)
		}
		for _, lvl := range Levels {
			r, err := runTranslated(w, core.Options{Level: lvl}, want)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, lvl, err)
			}
			// The stall/cache breakdown is R3000 pipeline detail, so it
			// lives on the MIPS backend's concrete simulator, not the
			// shared CPU.
			s, ok := r.BackendSim().(*risc.Sim)
			if !ok {
				t.Fatalf("default backend is not the MIPS simulator: %T", r.BackendSim())
			}
			t.Logf("%s/%s: cycles=%d instrs=%d cpi=%.2f loadstall=%d mdstall=%d imiss=%d dmiss=%d switches=%d",
				name, lvl, s.Cycles, s.Instrs, float64(s.Cycles)/float64(s.Instrs),
				s.LoadStalls, s.MDStalls, s.ICacheMisses, s.DCacheMisses, r.Switches)
			sum := s.Instrs + s.LoadStalls + s.MDStalls +
				penalty*(s.ICacheMisses+s.DCacheMisses) + xrun.SwitchPenalty*int64(r.Switches)
			if s.Instrs == 0 || s.Cycles != sum {
				t.Errorf("%s/%s: %d cycles over %d instructions, but the breakdown sums to %d",
					name, lvl, s.Cycles, s.Instrs, sum)
			}
		}
	}
}
