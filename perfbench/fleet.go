package main

import (
	"fmt"
	"sync"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/fleet"
	"tnsr/internal/obs"
	"tnsr/internal/pgo"
	"tnsr/internal/risc"
	"tnsr/internal/workloads"
)

// fleet-et1: one fleet.Run of fleetMachines machines, each running
// fleetTxns ET1 transactions on the shared mips image at Default. One
// caller. The run-host path: the RISC step loop and per-machine image
// build and attach do the work; translation is a few percent of an op.
// Sixteen machines keep an op near 70 ms, so a 20 s window holds well over
// the 100 ops the p90 rule needs even when the VM loses a third of its
// CPU to steal.
const (
	fleetMachines = 16
	fleetTxns     = 30
	fleetBudget   = 200_000_000
)

type fleetWorkload struct {
	seed int64

	// From set-up: the shared image as the fleet builds it, and the
	// interpreter's reference run of the same program.
	user, lib *codefile.File
	ref       reference

	mu         sync.Mutex
	ops        int
	cycles     map[float64]int // per-machine simulated cycles -> ops
	interpCyc  float64         // per machine, from the last op
	interludes int64
	switches   int64 // beyond each machine's initial entry into RISC
	merged     *obs.Report
}

func newFleet() *fleetWorkload { return &fleetWorkload{} }

func (w *fleetWorkload) clients() int { return 1 }

func (w *fleetWorkload) inputs(seed int64, _ int) error {
	w.seed = seed
	return nil
}

// fleetConfig is the op's fleet: every knob fixed except the seed, which
// only draws the machines' arrival schedules.
func fleetConfig(seed int64) fleet.Config {
	return fleet.Config{Machines: fleetMachines, TxnsPerMachine: fleetTxns,
		Level: codefile.LevelDefault, Seed: seed, Budget: fleetBudget}
}

func (w *fleetWorkload) setup() error {
	wl, err := workloads.Build(fleet.DefaultWorkload, fleetTxns)
	if err != nil {
		return err
	}
	if err := core.Accelerate(wl.User, userOpts(wl.LibSummaries, codefile.LevelDefault, nil)); err != nil {
		return err
	}
	if err := core.Accelerate(wl.Lib, libOpts(codefile.LevelDefault, nil)); err != nil {
		return err
	}
	ref, err := interpret(pristine(wl.User), pristine(wl.Lib), fleetBudget)
	if err != nil {
		return err
	}
	w.user, w.lib, w.ref = wl.User, wl.Lib, ref
	// Warm-up: two whole fleets on fixed seeds, outside the op stream.
	for _, s := range []int64{-1, -2} {
		if _, err := fleet.Run(fleetConfig(s)); err != nil {
			return err
		}
	}
	w.mu.Lock()
	w.ops, w.cycles, w.interludes, w.switches = 0, map[float64]int{}, 0, 0
	w.mu.Unlock()
	return nil
}

// opSeed draws op i's fleet seed from the workload seed.
func (w *fleetWorkload) opSeed(i int) int64 { return int64(splitmix(uint64(w.seed)<<20 ^ uint64(i))) }

func (w *fleetWorkload) op(_, i int, s scope) error {
	var (
		fr  *fleet.FleetReport
		err error
	)
	s.call("fleet.run", func(scope) { fr, err = fleet.Run(fleetConfig(w.opSeed(i))) })
	if err != nil {
		return err
	}
	s.call("fleet.validate", func(scope) { err = fr.Validate() })
	if err != nil {
		return err
	}
	rr := fr.Final()
	if ms := rr.MachineStates; ms.Serving != fleetMachines {
		return fmt.Errorf("%d of %d machines serving (%d degraded, %d failed)",
			ms.Serving, fleetMachines, ms.Degraded, ms.Failed)
	}
	for _, e := range rr.Obs.Escapes {
		if e.Reason == obs.EscapeUnknown.String() && e.Count > 0 {
			return fmt.Errorf("%d unknown escapes", e.Count)
		}
	}
	m := rr.Obs.Modes
	w.mu.Lock()
	defer w.mu.Unlock()
	w.ops++
	w.cycles[m.TotalCycles/fleetMachines]++
	w.interpCyc = m.InterpCycles / fleetMachines
	w.interludes += m.Interludes
	w.switches += m.Switches - fleetMachines
	return nil
}

// replay rebuilds the shared image and runs one machine the way
// fleet.Run does, one public call per span.
func (w *fleetWorkload) replay(_ int, s scope) error {
	var (
		wl  *workloads.Workload
		err error
	)
	s.call("workloads.build", func(scope) { wl, err = workloads.Build(fleet.DefaultWorkload, fleetTxns) })
	if err != nil {
		return err
	}
	if err := accelerateObserved(s, wl.User, userOpts(wl.LibSummaries, codefile.LevelDefault, nil)); err != nil {
		return err
	}
	if err := accelerateObserved(s, wl.Lib, libOpts(codefile.LevelDefault, nil)); err != nil {
		return err
	}
	if err := interpretTraced(s, wl.User, wl.Lib, fleetBudget); err != nil {
		return err
	}
	r, err := newRunner(s, wl.User, wl.Lib, risc.DefaultConfig())
	if err != nil {
		return err
	}
	rec := obs.NewRecorder()
	capt := pgo.NewCapture()
	s.call("xrun.attach", func(scope) {
		r.Observe(rec)
		r.Capture(capt)
	})
	if err := runTraced(s, r, fleetBudget); err != nil {
		return err
	}
	var rep *obs.Report
	s.call("xrun.report", func(scope) {
		rep = r.Report(rec)
		capt.Profile()
	})
	if w.merged == nil {
		w.merged = rep
		return nil
	}
	s.call("obs.merge", func(scope) { err = w.merged.Merge(rep) })
	return err
}

func (w *fleetWorkload) counters() map[string]float64 { return nil }

// finish applies the regime guard and builds the fleet's one simulated
// row: every machine runs the same program, so each op must report the
// same cycles.
func (w *fleetWorkload) finish() ([]simRow, int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := guardFleet(w.ops, w.interludes, w.switches); err != nil {
		return nil, 0, err
	}
	if len(w.cycles) != 1 {
		return nil, 0, fmt.Errorf("fleet-et1: machines simulated %d different cycle totals", len(w.cycles))
	}
	var cyc float64
	for c := range w.cycles {
		cyc = c
	}
	return []simRow{{name: "et1/mips/Default (fleet image)", tnsExec: w.ref.instrs,
		cycles: cyc, interpCyc: w.interpCyc, stats: addStats(w.user, w.lib)}}, 0, nil
}

func (w *fleetWorkload) close() {}
