package fleet

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"tnsr/internal/chaos"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/machine"
	"tnsr/internal/obs"
	"tnsr/internal/pgo"
	"tnsr/internal/profsrv"
	"tnsr/internal/retry"
	"tnsr/internal/risc"
	"tnsr/internal/tcache"
	"tnsr/internal/workloads"
	"tnsr/internal/xlate"
	"tnsr/internal/xrun"
)

// clockMHz prices simulated seconds: the Cyclone/R clock the whole repo's
// cost model is calibrated to.
const clockMHz = machine.CycloneRClockMHz

// Default knobs; Config zero values fall back to these.
const (
	DefaultTxnsPerMachine = 2
	DefaultBudget         = 200_000_000
	DefaultWorkload       = "et1"
)

// Config parameterizes one fleet run.
type Config struct {
	// Machines is the fleet size: one goroutine-backed simulated machine
	// each (<= 0 means 1).
	Machines int

	// TxnsPerMachine is the ET1 transaction count each machine executes
	// per round (<= 0 means DefaultTxnsPerMachine). It is compiled into
	// the workload, so it participates in the codefile fingerprint.
	TxnsPerMachine int

	// Rounds is how many times the whole fleet runs (<= 0 means 1). With
	// a profile source attached, round N+1 executes under a shared image
	// retranslated from the aggregate of round N's pushed captures — the
	// cross-machine PGO loop at fleet scale.
	Rounds int

	// Level is the shared image's acceleration level (LevelNone, the zero
	// value, reads as LevelDefault: a fleet exists to run translated).
	Level codefile.AccelLevel

	// Workers is the translation worker count (0 means the translator's
	// default).
	Workers int

	// Seed makes the run reproducible: machine i draws its arrival
	// schedule from Seed and i alone.
	Seed int64

	// Budget caps each machine's executed instructions per round
	// (<= 0 means DefaultBudget).
	Budget int64

	// RunSlots bounds how many machines hold resident simulator images at
	// once (<= 0 picks ~4x GOMAXPROCS, clamped to [8, 256]). All Machines
	// goroutines exist concurrently regardless; the gate only bounds peak
	// memory, not concurrency semantics.
	RunSlots int

	// Traffic shapes each machine's open-loop arrival process.
	Traffic Traffic

	// ChaosMachines is how many machines (the lowest IDs) run chaos-
	// mutated private images each round instead of the shared image.
	// Their degradation must stay their own: that is the isolation
	// property the fleet report's machine-state counts prove.
	ChaosMachines int

	// ChaosSeed seeds mutant selection (independent of Seed so traffic
	// and chaos can be varied separately).
	ChaosSeed int64

	// Workload names the program every machine runs (empty means
	// DefaultWorkload; ET1 is the fleet's reason to exist, but any
	// workload the repo builds is accepted).
	Workload string

	// Source, when non-nil, closes the PGO loop through a profile
	// service: serving machines push their captures after each round and
	// the host retranslates the next round's shared image under the
	// fetched aggregate. (*profsrv.Client reaches a remote tnsprofd.)
	Source xrun.ProfileSource

	// InProc mounts a profile server in-process instead: each machine
	// gets its own client whose synthetic remote address identifies it,
	// so the daemon's per-client rate limiting sees the same client
	// population a real fleet would present. Overrides Source.
	InProc      *profsrv.Server
	InProcToken string

	// Cache, when non-nil, serves the host's translations through the
	// persistent retranslation cache.
	Cache *tcache.Cache

	// Xlate, when non-nil, sends the host's translations to a tnsxlated
	// service first (the shared image and every per-round profiled
	// retranslation). Any remote failure degrades to a local translation
	// — the service's determinism contract makes the two byte-identical,
	// so degrading changes availability, never the image.
	Xlate *xlate.Client

	// SourceBreakAfter is the consecutive-failure count that opens the
	// shared profile-source circuit breaker (<= 0 means
	// retry.DefaultBreakAfter); SourceBreakCooldown is how long it stays
	// open before probing (<= 0 means retry.DefaultCooldown). The breaker
	// is shared by every machine's pushes and the host's fetches — one
	// dependency, one breaker. 429 backpressure never counts as failure.
	SourceBreakAfter    int
	SourceBreakCooldown time.Duration

	// Progress, when non-nil, receives one-line status messages.
	Progress func(format string, args ...any)

	// sourceBr guards every profile-source call; built by fill.
	sourceBr *retry.Breaker
}

func (c *Config) fill() {
	if c.Machines <= 0 {
		c.Machines = 1
	}
	if c.TxnsPerMachine <= 0 {
		c.TxnsPerMachine = DefaultTxnsPerMachine
	}
	if c.Rounds <= 0 {
		c.Rounds = 1
	}
	if c.Budget <= 0 {
		c.Budget = DefaultBudget
	}
	if c.RunSlots <= 0 {
		c.RunSlots = 4 * runtime.GOMAXPROCS(0)
		if c.RunSlots < 8 {
			c.RunSlots = 8
		}
		if c.RunSlots > 256 {
			c.RunSlots = 256
		}
	}
	if c.Workload == "" {
		c.Workload = DefaultWorkload
	}
	if c.Level == codefile.LevelNone {
		c.Level = codefile.LevelDefault
	}
	if c.ChaosMachines > c.Machines {
		c.ChaosMachines = c.Machines
	}
	if c.sourceBr == nil {
		c.sourceBr = retry.NewBreaker(c.SourceBreakAfter, c.SourceBreakCooldown)
	}
}

func (c *Config) progress(format string, args ...any) {
	if c.Progress != nil {
		c.Progress(format, args...)
	}
}

// sourceFor returns machine id's profile source: a private in-process
// client when a server is mounted, the shared source otherwise. id < 0 is
// the host itself.
func (c *Config) sourceFor(id int) xrun.ProfileSource {
	var src xrun.ProfileSource
	if c.InProc != nil {
		src = NewInProcClient(c.InProc, c.InProcToken, id)
	} else {
		src = c.Source
	}
	if src == nil {
		return nil
	}
	return &guardedSource{src: src, br: c.sourceBr}
}

// mixSeed derives machine id's per-round seed from the run seed with a
// splitmix-style multiply, so neighbouring IDs draw unrelated streams.
func mixSeed(seed int64, id, round int) int64 {
	x := uint64(seed) ^ uint64(id)*0x9E3779B97F4A7C15 ^ uint64(round)<<32
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	return int64(x)
}

// Run executes the whole fleet and returns its report.
func Run(cfg Config) (*FleetReport, error) {
	cfg.fill()

	fr := &FleetReport{
		Schema:         FleetSchema,
		Workload:       cfg.Workload,
		Machines:       cfg.Machines,
		TxnsPerMachine: cfg.TxnsPerMachine,
		ChaosMachines:  cfg.ChaosMachines,
		Level:          cfg.Level.String(),
		Seed:           cfg.Seed,
	}

	// The workload is built and interpreted once per run: only its
	// translation changes between rounds.
	w, err := workloads.Build(cfg.Workload, cfg.TxnsPerMachine)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	want, err := xrun.Interpret(interp.New(w.User, w.Lib), cfg.Budget)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}

	// One chaos reference serves every round: the mutation operators work
	// on serialized images, so building it once keeps per-round setup at
	// "mutate bytes", not "re-accelerate the world".
	var ref *chaos.Reference
	if cfg.ChaosMachines > 0 {
		ref, err = chaos.NewReferenceFromFiles(cfg.Workload, w.User, w.Lib, want)
		if err != nil {
			return nil, fmt.Errorf("fleet: chaos reference: %w", err)
		}
	}

	// The cross-round profile: round 1 inherits whatever the service
	// already holds; later rounds run under the aggregate of the fleet's
	// own pushes.
	var prof *pgo.Profile
	hostSource := cfg.sourceFor(-1)

	var localCaptures []*pgo.Profile
	for round := 1; round <= cfg.Rounds; round++ {
		user, lib, err := buildShared(&cfg, w, prof)
		if err != nil {
			return nil, err
		}
		if hostSource != nil && round == 1 {
			fp := fmt.Sprintf("%016x", user.Fingerprint())
			if agg, err := hostSource.Fetch(fp); err == nil && agg != nil {
				// Rebuild under the inherited aggregate before anyone runs.
				if user, lib, err = buildShared(&cfg, w, agg); err != nil {
					return nil, err
				}
			}
		}
		cfg.progress("round %d/%d: %d machines (%d chaos), level %s",
			round, cfg.Rounds, cfg.Machines, cfg.ChaosMachines, cfg.Level)

		results := runRound(&cfg, round, user, lib, ref, want)
		rr, captures := aggregateRound(&cfg, round, results)
		fr.Rounds = append(fr.Rounds, rr)
		localCaptures = captures
		cfg.progress("round %d/%d: %.1f txn/s, p99 %.2f ms, %.2f%% interpreted, %d/%d serving",
			round, cfg.Rounds, rr.ThroughputTPS, rr.Latency.P99Ms,
			100*rr.Obs.Modes.InterpFraction, rr.MachineStates.Serving, cfg.Machines)

		if round == cfg.Rounds {
			break
		}
		prof = nextRoundProfile(&cfg, hostSource, user, localCaptures)
	}
	return fr, nil
}

// buildShared translates w's codefiles into the fleet's shared ones, under
// prof when non-nil. The returned files are shared READ-ONLY by every
// machine; the immutability contract (sealed PMaps, one immutable run
// image per round) is what makes that safe, and the fleet race tests pin
// it.
func buildShared(cfg *Config, w *workloads.Workload, prof *pgo.Profile) (*codefile.File, *codefile.File, error) {
	accelerate := func(f *codefile.File, opts core.Options) error {
		if cfg.Xlate != nil {
			if err := cfg.Xlate.Accelerate(f, opts); err == nil {
				return nil
			}
			// Remote failure: degrade to a local translation of the same
			// key — byte-identical by the determinism contract.
		}
		if cfg.Cache != nil {
			_, err := cfg.Cache.Accelerate(f, opts)
			return err
		}
		return core.Accelerate(f, opts)
	}
	user, lib, err := core.AcceleratePair(w.User, w.Lib, core.Options{
		Level: cfg.Level, Workers: cfg.Workers, Profile: prof,
	}, accelerate)
	if err != nil {
		return nil, nil, fmt.Errorf("fleet: accelerate: %w", err)
	}
	return user, lib, nil
}

// runRound launches every machine concurrently and collects their results
// in ID order. Standard machines share one run image of the round's
// codefiles, built here; the round holds it. Chaos machines parse private
// mutated images and build their own; a rejected image falls back to the
// pristine CISC view of the SHARED files — the machine serves interpreted,
// alone in its degradation.
func runRound(cfg *Config, round int, user, lib *codefile.File,
	ref *chaos.Reference, want *xrun.Outcome) []*machineResult {

	// A shared image that fails to build leaves image nil: every standard
	// machine then builds its own and fails with the same load error.
	image, _ := xrun.NewImage(user, lib, risc.DefaultConfig())
	slots := make(chan struct{}, cfg.RunSlots)
	results := make([]*machineResult, cfg.Machines)
	var wg sync.WaitGroup
	for id := 0; id < cfg.Machines; id++ {
		spec := &machineSpec{
			id:       id,
			workload: cfg.Workload,
			image:    image,
			user:     user,
			lib:      lib,
			want:     want,
			budget:   cfg.Budget,
			txns:     cfg.TxnsPerMachine,
			traffic:  cfg.Traffic,
			rng:      rand.New(rand.NewSource(mixSeed(cfg.Seed, id, round))),
			source:   cfg.sourceFor(id),
		}
		if id < cfg.ChaosMachines && ref != nil {
			assignMutant(spec, ref, cfg.ChaosSeed, round, user, lib)
		}
		wg.Add(1)
		go func(spec *machineSpec) {
			defer wg.Done()
			results[spec.id] = runMachine(spec, slots)
		}(spec)
	}
	wg.Wait()
	return results
}

// assignMutant points a chaos machine's spec at its private mutated image.
// Every failure mode downgrades toward the pristine shared image — the
// chaos contract is that damage is contained, not that damage is possible.
func assignMutant(spec *machineSpec, ref *chaos.Reference, seed int64, round int,
	sharedUser, sharedLib *codefile.File) {

	rng := rand.New(rand.NewSource(mixSeed(seed, spec.id, round)))
	op := chaos.Op(rng.Intn(int(chaos.NumOps)))
	mu, err := ref.Mutate(rng, op)
	if err != nil {
		// Mutation machinery failed; run pristine on the shared image.
		// The machine still counts as a chaos machine, it just drew a
		// blank round.
		return
	}
	spec.image = nil
	userRaw, libRaw := mu.User, mu.Lib
	if userRaw == nil {
		userRaw = ref.UserRaw
	}
	if libRaw == nil {
		libRaw = ref.LibRaw
	}
	fallback := func(detail string) {
		spec.user = sharedUser.Pristine()
		spec.lib = sharedLib.Pristine()
		spec.chaosDegraded = fmt.Sprintf("chaos %s: image rejected at load: %s", op, detail)
	}
	u, err := parseImage(userRaw)
	if err != nil {
		fallback(err.Error())
		return
	}
	var l *codefile.File
	if libRaw != nil {
		if l, err = parseImage(libRaw); err != nil {
			fallback(err.Error())
			return
		}
	}
	spec.user, spec.lib = u, l
}

// aggregateRound folds the machines' results (in ID order, so the merge is
// deterministic) into one RoundReport via obs.Report.Merge, and returns
// the serving machines' captures for the host-side profile fold.
func aggregateRound(cfg *Config, round int, results []*machineResult) (RoundReport, []*pgo.Profile) {
	rr := RoundReport{Round: round}
	lat := &Hist{}
	var merged *obs.Report
	var captures []*pgo.Profile
	for _, res := range results {
		if res == nil { // unreachable: every goroutine writes its slot
			rr.MachineStates.Failed++
			continue
		}
		switch res.state {
		case Serving:
			rr.MachineStates.Serving++
		case Degraded:
			rr.MachineStates.Degraded++
		case Failed:
			rr.MachineStates.Failed++
			rr.Failures = append(rr.Failures, MachineFailure{
				Machine: res.id, Reason: res.stateReason})
			continue
		}
		rr.Txns += res.txns
		if res.elapsed > 0 {
			rr.ThroughputTPS += float64(res.txns) / res.elapsed
		}
		lat.Merge(res.lat)
		if res.pushErr != nil {
			rr.PushErrs++
		}
		if res.capture != nil && res.state == Serving {
			captures = append(captures, res.capture)
		}
		if res.report != nil {
			if merged == nil {
				merged = res.report
			} else if err := merged.Merge(res.report); err != nil {
				// A malformed per-machine report cannot be merged; treat
				// its producer as failed rather than poisoning the fleet.
				rr.MachineStates.Failed++
				rr.Failures = append(rr.Failures, MachineFailure{
					Machine: res.id, Reason: "report merge: " + err.Error()})
			}
		}
	}
	if merged == nil {
		merged = &obs.Report{Schema: obs.Schema, Workload: cfg.Workload, Level: "None"}
	}
	rr.Obs = merged
	rr.Latency = latencyStats(lat)
	if cfg.Cache != nil {
		st := cfg.Cache.Stats()
		rr.CacheHits, rr.CacheMisses = st.Hits, st.Misses
	}
	if cfg.InProc != nil || cfg.Source != nil {
		bc := cfg.sourceBr.Counts()
		rr.SourceBreaker = &BreakerSnapshot{
			State:     bc.State.String(),
			Opens:     bc.Opens,
			FastFails: bc.FastFails,
			Probes:    bc.Probes,
		}
	}
	return rr, captures
}

// nextRoundProfile decides what profile the next round's shared image is
// translated under: the service's aggregate when the loop runs through
// one, the local fold of this round's captures otherwise.
func nextRoundProfile(cfg *Config, src xrun.ProfileSource, user *codefile.File,
	captures []*pgo.Profile) *pgo.Profile {

	if src != nil {
		fp := fmt.Sprintf("%016x", user.Fingerprint())
		if agg, err := src.Fetch(fp); err == nil && agg != nil {
			return agg
		}
	}
	if len(captures) == 0 {
		return nil
	}
	merged, err := pgo.Merge(captures...)
	if err != nil {
		return nil
	}
	return merged
}
