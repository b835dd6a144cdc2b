package main

import (
	"time"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/obs"
	"tnsr/internal/risc"
	"tnsr/internal/xrun"
)

// corePhases are the translation phases core.Accelerate reports to
// Options.Obs.
var corePhases = []string{"analyze", "rp", "liveness", "translate", "merge", "schedule", "finalize"}

// layerMetrics turns a traced window, its replays and the counters they
// kept into the per-layer metrics. Op spans are divided over the traced
// ops, replay spans over the replayed ops. A layer a workload does not
// reach reads 0.
func layerMetrics(tw, base *window, tr *tracer, replayed int, sim simFigures) map[string]metric {
	st := selfTimes(tr.spans)
	c := tr.counts
	ops := float64(tw.ops)
	rep := float64(replayed)
	per := func(v, n float64) float64 {
		if n == 0 {
			return 0
		}
		return v / n
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	opMs := func(name string) metric { return metric{per(ms(st[name].self), ops), "ms"} }
	repMs := func(name string) metric { return metric{per(ms(st[name].self), rep), "ms"} }
	nsPer := func(prefix string) metric { return metric{per(c[prefix+".run_ns"], c[prefix+".instrs"]), "ns"} }

	m := map[string]metric{
		"xrun.new_ms":                  repMs("xrun.new"),
		"xrun.attach_ms":               repMs("xrun.attach"),
		"xrun.run_ms":                  repMs("xrun.run"),
		"xrun.report_ms":               repMs("xrun.report"),
		"xrun.switches_per_op":         {per(c["xrun.switches"], rep), "count"},
		"xrun.interlude_instrs_per_op": {per(c["xrun.interlude_instrs"], rep), "count"},
		"risc.ns_per_instr":            nsPer("mips"),
		"ob0.ns_per_instr":             nsPer("ob0"),
		"interp.ns_per_instr":          nsPer("interp"),
		"core.accelerate_ms":           repMs("core.accelerate"),
		"core.rp_checks":               {float64(sim.sums.RPChecks), "count"},
		"core.puzzle_points":           {float64(sim.sums.PuzzlePoints), "count"},
		"core.filled_slots":            {float64(sim.sums.FilledSlots), "count"},
		"xlate.submit_ms":              opMs("xlate.submit"),
		"xlate.fetch_ms":               opMs("xlate.fetch"),
		"xlate.graft_ms":               opMs("xlate.graft"),
		"xlate.wait_ms":                {per(tw.delta("xlate.wait_ns")/1e6, ops), "ms"},
		"xlate.polls_per_op":           {per(tw.delta("xlate.polls"), ops), "count"},
		"xlate.frags_per_op":           {per(tw.delta("xlate.frags"), ops), "count"},
		"xlate.steals_per_op":          {per(tw.delta("xlate.steals"), ops), "count"},
		"tcache.hit_ratio":             {per(tw.delta("xlate.cached"), tw.delta("xlate.submits")), "ratio"},
		"store.put_ms":                 repMs("store.put"),
		"codefile.write_ms":            repMs("codefile.write"),
		"tcache.get_verified_ms":       repMs("tcache.get_verified"),
		"store.get_ms":                 repMs("store.get"),
		"codefile.read_ms":             repMs("codefile.read"),
		"codefile.verify_ms":           repMs("codefile.verify"),
		"fleet.run_ms":                 opMs("fleet.run"),
		"obs.merge_ms":                 repMs("obs.merge"),
		"tnsgen.oracle_ms":             opMs("tnsgen.oracle"),
		"tnsgen.generate_ms":           opMs("tnsgen.generate"),
		"tnsasm.assemble_ms":           repMs("tnsasm.assemble"),
		"tnsgen.passes_per_op":         {per(tw.delta("tnsgen.passes"), ops), "count"},
		"trace.overhead_pct":           {100 * (1 - per(tw.opsPerSec(), base.opsPerSec())), "%"},
	}
	for _, p := range corePhases {
		m["core."+p+"_ms"] = metric{per(c["core."+p+"_ns"]/1e6, rep), "ms"}
	}
	return m
}

// The replays' traced calls into the program, shared by the workloads.

// accelerateObserved is core.Accelerate with a recorder attached, its
// phase times added to the trace counters.
func accelerateObserved(s scope, f *codefile.File, opts core.Options) error {
	rec := obs.NewRecorder()
	opts.Obs = rec
	var err error
	s.call("core.accelerate", func(scope) { err = core.Accelerate(f, opts) })
	if err != nil {
		return err
	}
	for _, p := range rec.Report().Phases {
		s.count("core."+p.Phase+"_ns", p.Seconds*1e9)
	}
	return nil
}

// interpretTraced is the interpreter reference run of a pair.
func interpretTraced(s scope, user, lib *codefile.File, budget int64) error {
	m := interp.New(pristine(user), pristine(lib))
	var err error
	d := s.call("interp.run", func(scope) { err = m.Run(budget) })
	if err != nil {
		return err
	}
	s.count("interp.run_ns", float64(d.Nanoseconds()))
	s.count("interp.instrs", float64(m.Prof.Instrs))
	return nil
}

func newRunner(s scope, user, lib *codefile.File, cfg risc.Config) (*xrun.Runner, error) {
	var (
		r   *xrun.Runner
		err error
	)
	s.call("xrun.new", func(scope) { r, err = xrun.New(user, lib, cfg) })
	return r, err
}

// runTraced runs r and books its time per simulated instruction against
// its backend, for runs that never left RISC mode after entering it.
func runTraced(s scope, r *xrun.Runner, budget int64) error {
	var err error
	d := s.call("xrun.run", func(scope) { err = r.Run(budget) })
	if err != nil {
		return err
	}
	s.count("xrun.switches", float64(r.Switches))
	s.count("xrun.interlude_instrs", float64(r.InterludeProf.Instrs))
	if r.Interludes == 0 {
		be := r.Backend().Name()
		s.count(be+".run_ns", float64(d.Nanoseconds()))
		s.count(be+".instrs", float64(r.Sim.Instrs))
	}
	return nil
}
