package main

import (
	"fmt"

	"tnsr/internal/obs"
	"tnsr/internal/tnsgen"
)

// A regime guard checks that a workload exercised the layers it exists
// for. When one trips, the run stops with an error naming it instead of
// printing numbers measured in the wrong regime.
func tripped(guard, format string, args ...any) error {
	return fmt.Errorf("regime guard %s tripped: %s", guard, fmt.Sprintf(format, args...))
}

// xlateTally is what the service did for the ops of a run.
type xlateTally struct {
	ops              int
	submits, cached  int64 // submits, and those answered from the store
	frags            int64 // fragment jobs the queue executed
	storeHits, trans int64 // tcache hits and misses (translations) on the translate path
}

func xlateCounts(c map[string]float64, ops int) xlateTally {
	return xlateTally{ops: ops, submits: int64(c["xlate.submits"]), cached: int64(c["xlate.cached"]),
		frags: int64(c["xlate.frags"]), storeHits: int64(c["tcache.hits"]), trans: int64(c["tcache.misses"])}
}

// guardXlateCold: no op may be answered from the store (a corpus that
// wraps around turns cold ops into hits), and every op translates at least
// one fragment.
func guardXlateCold(t xlateTally) error {
	switch {
	case t.ops == 0:
		return tripped("xlate-cold/ops", "no op completed")
	case t.cached != 0 || t.storeHits != 0:
		return tripped("xlate-cold/no-store-hits", "%d submits answered from the store, %d cache hits",
			t.cached, t.storeHits)
	case t.trans != t.submits:
		return tripped("xlate-cold/every-op-translates", "%d translations for %d submits", t.trans, t.submits)
	case t.frags < int64(t.ops):
		return tripped("xlate-cold/fragments", "%d fragments for %d ops", t.frags, t.ops)
	}
	return nil
}

// guardXlateWarm: every op is answered from the store and no fragment
// executes (the rule bench.ValidateXlateRecords applies to cached passes).
func guardXlateWarm(t xlateTally) error {
	switch {
	case t.ops == 0:
		return tripped("xlate-warm/ops", "no op completed")
	case t.cached != t.submits:
		return tripped("xlate-warm/all-cached", "%d of %d submits answered from the store", t.cached, t.submits)
	case t.frags != 0 || t.trans != 0:
		return tripped("xlate-warm/no-fragments", "%d fragments executed, %d translations", t.frags, t.trans)
	}
	return nil
}

// guardFleet: the paper workload runs entirely translated. Each machine
// switches mode once, entering RISC code at its main entry; any further
// switch is an interlude.
func guardFleet(ops int, interludes, extraSwitches int64) error {
	switch {
	case ops == 0:
		return tripped("fleet-et1/ops", "no op completed")
	case interludes != 0 || extraSwitches != 0:
		return tripped("fleet-et1/no-mode-switches", "%d interludes, %d switches beyond the machines' entries into RISC",
			interludes, extraSwitches)
	}
	return nil
}

// guardCampaign: generated programs must cross the interpreter/RISC
// boundary, and the run must cover every escape class.
func guardCampaign(cov *tnsgen.Coverage) error {
	var escapes int64
	for _, n := range cov.Runtime {
		escapes += n
	}
	if escapes == 0 {
		return tripped("campaign/mode-switches", "no run-time escapes, so no mode switches")
	}
	if miss := cov.Missing(); len(miss) > 0 {
		return tripped("campaign/coverage", "escape classes not covered: %v (of %d)", miss, len(obs.GuaranteeClasses))
	}
	return nil
}
