package main

import (
	"fmt"
	"math/rand"
	"sync"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/obs"
	"tnsr/internal/risc"
	"tnsr/internal/tnsasm"
	"tnsr/internal/tnsgen"
)

// campaign: one seeded tnsgen program through tnsgen.RunOracle at all
// three levels on mips and ob0, serially, with the Configs an unsteered
// tnsgen.Campaign draws. Two callers. The only workload that crosses the
// interpreter/RISC boundary and runs ob0.
const (
	campaignLibEvery = 5  // every 5th program is a user+library pair
	campaignRows     = 10 // programs in the fixed simulated-clock row set
)

type campaignWorkload struct {
	seed int64

	mu       sync.Mutex
	coverage tnsgen.Coverage
	passes   int64
}

func newCampaign() *campaignWorkload { return &campaignWorkload{} }

// clients is two: a campaign sharded over two callers, each translating
// serially (oracleOptions sets Workers to 1), so both vCPUs carry the same
// load. A single caller's latency follows whichever vCPU the scheduler
// keeps it on, and on a shared host the two run at different and
// independently drifting speeds.
func (w *campaignWorkload) clients() int { return 2 }

func (w *campaignWorkload) inputs(seed int64, _ int) error {
	w.seed = seed
	return nil
}

// program draws program i of the stream starting at base. Its body comes
// from seed base+i; its Config is the one tnsgen.Campaign.Run draws for
// its i-th program from seed 0, whatever the base. The Config sets how
// many oracle passes a program takes (6, 12 or 18), which decides most of
// its latency, so every run sees the same mix of pass counts and only the
// bodies change with the workload seed. On the reserved stream (base 0)
// this is exactly an unsteered campaign.
func program(base int64, i int) *tnsgen.Program {
	seed := base + int64(i)
	cfg := tnsgen.RandomConfig(rand.New(rand.NewSource(int64(i) ^ 0x5DEECE66D)))
	if i%campaignLibEvery == campaignLibEvery-1 {
		cfg = tnsgen.Config{Library: true}
	}
	return tnsgen.Generate(fmt.Sprintf("gen%d", seed), seed, cfg)
}

// opBase is where the workload seed's program stream starts: seed s >= 0
// at (s+1)<<24, so streams of different seeds do not overlap and the one
// at 0 stays reserved for set-up and the simulated rows.
func (w *campaignWorkload) opBase() int64 { return (w.seed + 1) << 24 }

func oracleOptions() tnsgen.OracleOptions {
	o := tnsgen.DefaultOracle()
	o.Backends = backends()
	o.Workers = 1
	return o
}

func (w *campaignWorkload) setup() error {
	// Warm-up: the first three programs of the reserved stream.
	for i := 0; i < 3; i++ {
		if _, err := tnsgen.RunOracle(program(0, i).Subject(), oracleOptions()); err != nil {
			return fmt.Errorf("warm-up program %d: %w", i, err)
		}
	}
	w.mu.Lock()
	w.coverage, w.passes = tnsgen.Coverage{}, 0
	w.mu.Unlock()
	return nil
}

func (w *campaignWorkload) op(_, i int, s scope) error {
	var subj *tnsgen.Subject
	s.call("tnsgen.generate", func(scope) { subj = program(w.opBase(), i).Subject() })
	var (
		res *tnsgen.Result
		err error
	)
	s.call("tnsgen.oracle", func(scope) { res, err = tnsgen.RunOracle(subj, oracleOptions()) })
	if res != nil {
		w.mu.Lock()
		w.coverage.Merge(&res.Coverage)
		w.passes += int64(res.Passes)
		w.mu.Unlock()
		s.count("tnsgen.passes", float64(res.Passes))
	}
	return err
}

// replay re-runs the oracle's plain passes of op i one public call at a
// time: assemble, the interpreter reference, then per backend and level
// assemble, accelerate (with a recorder), build the runner, attach and run.
func (w *campaignWorkload) replay(i int, s scope) error {
	subj := program(w.opBase(), i).Subject()
	user, lib, sums, err := assembleTraced(s, subj)
	if err != nil {
		return err
	}
	if err := interpretTraced(s, user, lib, oracleOptions().InterpBudget); err != nil {
		return err
	}
	for _, be := range backends() {
		for _, lvl := range oracleOptions().Levels {
			user, lib, _, err := assembleTraced(s, subj)
			if err != nil {
				return err
			}
			rec := obs.NewRecorder()
			if lib != nil {
				o := libOpts(lvl, be)
				o.Workers = oracleOptions().Workers
				if err := accelerateObserved(s, lib, o); err != nil {
					return err
				}
			}
			o := userOpts(sums, lvl, be)
			o.Workers = oracleOptions().Workers
			if err := accelerateObserved(s, user, o); err != nil {
				return err
			}
			r, err := newRunner(s, user, lib, oracleSim)
			if err != nil {
				return err
			}
			s.call("xrun.attach", func(scope) { r.Observe(rec) })
			if err := runTraced(s, r, oracleOptions().RunBudget); err != nil {
				return err
			}
		}
	}
	return nil
}

// oracleSim is the simulator timing tnsgen's oracle runs under.
var oracleSim = risc.Config{MulLatency: 12, DivLatency: 35}

// assembleTraced assembles a subject's codefiles, deriving the library
// summaries as the oracle does.
func assembleTraced(s scope, subj *tnsgen.Subject) (user, lib *codefile.File, sums map[uint16]int8, err error) {
	s.call("tnsasm.assemble", func(scope) {
		if user, err = tnsasm.Assemble(subj.Name, subj.User); err != nil || subj.Lib == "" {
			return
		}
		if lib, err = tnsasm.Assemble(subj.Name+"-lib", subj.Lib); err != nil {
			return
		}
		sums = map[uint16]int8{}
		for k, p := range lib.Procs {
			sums[uint16(k)] = p.ResultWords
		}
	})
	return user, lib, sums, err
}

func (w *campaignWorkload) counters() map[string]float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return map[string]float64{"tnsgen.passes": float64(w.passes)}
}

// finish checks the regime, then builds the fixed row set: the first
// campaignRows programs of the reserved stream, plain-translated at every
// level for both backends and run on the Cyclone/R model.
func (w *campaignWorkload) finish() ([]simRow, int, error) {
	w.mu.Lock()
	cov := w.coverage
	w.mu.Unlock()
	if err := guardCampaign(&cov); err != nil {
		return nil, 0, err
	}
	var rows []simRow
	for i := 0; i < campaignRows; i++ {
		subj := program(0, i).Subject()
		user, lib, sums, err := assembleTraced(scope{}, subj)
		if err != nil {
			return nil, 0, err
		}
		ref, err := interpret(user, lib, oracleOptions().InterpBudget)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", subj.Name, err)
		}
		for _, be := range backends() {
			for _, lvl := range oracleOptions().Levels {
				u, l := pristine(user), pristine(lib)
				if l != nil {
					if err := core.Accelerate(l, libOpts(lvl, be)); err != nil {
						return nil, 0, err
					}
				}
				if err := core.Accelerate(u, userOpts(sums, lvl, be)); err != nil {
					return nil, 0, err
				}
				row, err := runRow(fmt.Sprintf("%s/%s/%s", subj.Name, be.Name(), lvl), u, l, ref)
				if err != nil {
					return nil, 0, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, 0, nil
}

func (w *campaignWorkload) close() {}
