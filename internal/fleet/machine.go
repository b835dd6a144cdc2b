// Package fleet is the run-host: thousands of concurrent simulated TNS
// machines, each a private interpreter/simulator pair executing the ET1
// transaction workload in mixed mode against one shared, immutable,
// accelerated codefile image — the deployment shape the paper's migration
// argues for, where a single translated system image serves a whole fleet
// of NonStop nodes. The host aggregates every machine's telemetry into one
// fleet report (mode residency, escape histograms, throughput, latency
// percentiles), closes the PGO loop through a profile service, and proves
// the degradation story under load: a corrupt codefile on one machine
// degrades that machine alone, never the fleet.
package fleet

import (
	"fmt"
	"math/rand"

	"tnsr/internal/codefile"
	"tnsr/internal/obs"
	"tnsr/internal/pgo"
	"tnsr/internal/risc"
	"tnsr/internal/xrun"
)

// State is one machine's condition at the end of a round.
type State int

const (
	// Serving: the machine ran its transactions in mixed mode and its
	// outcome (halt state, trap, exit status, console and data memory)
	// matched the interpreter reference.
	Serving State = iota
	// Degraded: the machine served its transactions, but fully (or
	// partially) interpreted — its acceleration was rejected at load or
	// verification time, or quarantined at run time. Output still matched.
	Degraded
	// Failed: the machine could not serve — its run errored, or its output
	// diverged from the reference and was withheld.
	Failed

	numStates
)

var stateNames = [numStates]string{"serving", "degraded", "failed"}

func (s State) String() string {
	if s >= 0 && s < numStates {
		return stateNames[s]
	}
	return "invalid"
}

// machineResult is what one machine hands back to the host for one round.
type machineResult struct {
	id          int
	state       State
	stateReason string

	// report and capture are nil for Failed machines: diverged telemetry
	// must not pollute the fleet aggregate.
	report  *obs.Report
	capture *pgo.Profile

	txns    int64
	elapsed float64 // simulated seconds, first arrival to last completion
	lat     *Hist   // per-transaction latency, nanoseconds of simulated time

	pushErr error
}

// machineSpec is everything one machine needs for one round. Standard
// machines carry the round's SHARED run image (read-only by contract: a
// runner owns only its data memory, interpreter and counters); a chaos
// machine carries its private parsed user/lib files and no image, and
// builds its own.
type machineSpec struct {
	id       int
	workload string
	image    *xrun.Image
	user     *codefile.File
	lib      *codefile.File
	want     *xrun.Outcome // the round's pure-interpreter reference
	budget   int64
	txns     int
	traffic  Traffic
	rng      *rand.Rand
	source   xrun.ProfileSource // nil: no push
	// chaosDegraded marks a machine whose private image was rejected at
	// parse time and which therefore serves interpreted from the pristine
	// CISC image; the runner won't know, so the spec carries the reason.
	chaosDegraded string
}

// runMachine executes one machine's round: build the runtime image, run
// the transactions mixed-mode, verify the output against the interpreter
// reference, price the run into an open-loop latency distribution, and
// push the PGO capture. Any panic is contained to this machine — the
// degradation contract under fleet concurrency.
func runMachine(spec *machineSpec, slots chan struct{}) (res *machineResult) {
	res = &machineResult{id: spec.id, state: Serving}
	defer func() {
		if p := recover(); p != nil {
			res.state = Failed
			res.stateReason = fmt.Sprintf("panic: %v", p)
			res.report, res.capture = nil, nil
		}
	}()

	// The slot gate bounds how many runners are resident at once, and so
	// how many simulator memories are in use. A runner over a shared image
	// holds about 1.36 MB (the 1 MiB simulator memory and its count
	// slots, 18 KB on et1, the interpreter's 128 KiB data space and the
	// R3000's cache tags) but allocates only about 0.3 MB of it when it
	// takes a memory and count slots an earlier machine released
	// (BenchmarkRunnerNew "recycled" against "shared"). Every
	// machine's goroutine exists concurrently — arrival schedules are in
	// simulated time, so queueing behavior is unaffected by when the slot
	// opens.
	slots <- struct{}{}
	defer func() { <-slots }()

	img := spec.image
	if img == nil {
		var err error
		if img, err = xrun.NewImage(spec.user, spec.lib, risc.DefaultConfig()); err != nil {
			res.state = Failed
			res.stateReason = "load: " + err.Error()
			return res
		}
	}
	r := img.NewRunner()
	serve(spec, r, res)
	// Reached only when serve returned: a machine that panicked leaves its
	// simulator memory to the garbage collector.
	r.Release()
	return res
}

// serve runs the machine's runner over its transactions, checks the
// output against the reference, prices the run and pushes the capture,
// recording the outcome in res.
func serve(spec *machineSpec, r *xrun.Runner, res *machineResult) {
	rec := obs.NewRecorder()
	r.Observe(rec)
	cap := pgo.NewCapture()
	r.Capture(cap)

	if err := r.Run(spec.budget); err != nil {
		res.state = Failed
		res.stateReason = "run: " + err.Error()
		return
	}

	// The oracle: whatever mode mixture the machine ran in — accelerated,
	// quarantined, degraded, or mutated — its observable behavior must be
	// the pristine interpreter's. A divergent machine is withheld from the
	// fleet entirely.
	if err := spec.want.Check(r.Outcome()); err != nil {
		res.state = Failed
		res.stateReason = "output diverged: " + err.Error()
		return
	}

	rep := r.Report(rec)
	rep.Workload = spec.workload
	if spec.chaosDegraded != "" {
		rep.Degraded = true
		if rep.DegradedReason != "" {
			rep.DegradedReason += "; "
		}
		rep.DegradedReason += spec.chaosDegraded
	}
	res.report = rep
	res.capture = cap.Profile()
	if rep.Degraded || len(rep.Quarantined) > 0 {
		res.state = Degraded
		res.stateReason = rep.DegradedReason
		if res.stateReason == "" {
			res.stateReason = fmt.Sprintf("%d procs quarantined", len(rep.Quarantined))
		}
	}

	res.txns, res.elapsed, res.lat = simulateArrivals(spec, r)

	// Close the PGO loop. Only healthy machines advise the fleet: a
	// degraded machine's capture describes interpreter-only execution of
	// a rejected image, which is noise to the aggregate. Push failures
	// are advisory (the run already happened) but are surfaced.
	if spec.source != nil && res.state == Serving {
		if _, err := spec.source.Push(res.capture); err != nil {
			res.pushErr = err
		}
	}
}

// simulateArrivals prices the machine's run into an open-loop queueing
// simulation. The mixed-mode run executed all transactions back to back;
// its priced wall time gives the per-transaction service time S on this
// machine (a degraded machine's S is several times larger — exactly the
// latency penalty the fleet report should show). Transactions arrive on
// the machine's seeded schedule whether or not the server is free, so
// completion_i = max(arrival_i, completion_{i-1}) + S and the sojourn
// times feed the latency histogram.
func simulateArrivals(spec *machineSpec, r *xrun.Runner) (txns int64, elapsed float64, lat *Hist) {
	n := spec.txns
	if n < 1 {
		n = 1
	}
	totalCycles, _, _ := r.Cycles()
	s := totalCycles / (clockMHz * 1e6) / float64(n) // service seconds per txn

	lat = &Hist{}
	gaps := spec.traffic.gaps(spec.rng, n)
	var arrival, completion float64
	for _, g := range gaps {
		arrival += g
		start := arrival
		if completion > start {
			start = completion
		}
		completion = start + s
		lat.Record(int64((completion - arrival) * 1e9))
	}
	return int64(n), completion, lat
}

// parseImage loads one serialized codefile; it is how chaos machines get
// their private (possibly mutated) images.
func parseImage(raw []byte) (*codefile.File, error) {
	return codefile.Parse(raw)
}
