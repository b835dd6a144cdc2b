package xrun

import (
	"fmt"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/obs"
	"tnsr/internal/pgo"
	"tnsr/internal/risc"
	"tnsr/internal/tcache"
)

// Profile-guided retranslation: the feedback loop the paper's customers
// closed by hand — run, notice interpreter interludes, write a hint file,
// retranslate — done automatically. Pass 1 translates with no advice and
// runs the program observed, capturing every fact the guards surface (the
// dynamic RP wherever a check fired, actual call targets and result sizes
// on the interpreted paths, residency weights). Pass 2 retranslates with
// the captured profile attached and reruns. Both translations keep every
// run-time guard, so the two passes are observationally identical; only
// the mode residency differs.
//
// With a ProfileSource attached the loop closes across machines: pass 1
// starts from the fleet aggregate instead of from nothing, the local
// capture is pushed back, and pass 2 runs under the merged aggregate the
// whole fleet now shares.

// ProfileSource serves fleet-aggregated profiles. *profsrv.Client
// implements it; tests implement it in-process. Every use is advisory: a
// source error degrades the run to local-only profiles, recorded in
// AdaptiveResult.SourceErrs, never failing the run.
type ProfileSource interface {
	// Fetch returns the aggregate for a user-space codefile fingerprint
	// (16 hex digits), or (nil, nil) when the fleet has none yet.
	Fetch(fingerprint string) (*pgo.Profile, error)
	// Push uploads a capture and returns the merged aggregate now held for
	// its fingerprint.
	Push(p *pgo.Profile) (*pgo.Profile, error)
}

// AdaptiveOptions configures RunAdaptive.
type AdaptiveOptions struct {
	// Level and Workers configure both passes' translations, Budget
	// bounds each pass's run, and Config is the simulator timing.
	Level   codefile.AccelLevel
	Workers int
	Budget  int64
	Config  risc.Config

	// Source, when non-nil, closes the loop through a fleet profile
	// service: pass 1 translates under the fetched aggregate, the pass-1
	// capture is pushed, and pass 2 translates under the merged aggregate
	// the push returns.
	Source ProfileSource

	// Cache, when non-nil, serves both passes' translations through the
	// persistent retranslation cache — byte-identical by TransKey, so the
	// cycle's outcome is unchanged; only translation latency moves.
	Cache *tcache.Cache
}

// AdaptiveResult reports a RunAdaptive cycle.
type AdaptiveResult struct {
	// Profile is the pass-1 capture — the local machine's observations,
	// and (without a Source) the profile that steered pass 2.
	Profile *pgo.Profile

	// Applied is the profile pass 2 actually translated under: the pushed
	// merge's returned aggregate when a Source is attached, otherwise
	// Profile itself.
	Applied *pgo.Profile

	// SourceErrs records Source failures the cycle degraded around
	// (profiles are advisory, so a dead or misbehaving server costs
	// advice, never the run).
	SourceErrs []error

	// First and Second are the completed runners of the two passes, with
	// FirstObs/SecondObs their telemetry (escape histograms, residency).
	// The cycle's outcome is Second.Outcome(), which Check found equal to
	// First's. Both runners are the caller's to Release.
	First, Second       *Runner
	FirstObs, SecondObs *obs.Recorder
}

// InterpFractions returns the interpreter-mode residency of each pass.
func (a *AdaptiveResult) InterpFractions() (first, second float64) {
	return a.First.InterpFraction(), a.Second.InterpFraction()
}

// RunAdaptive executes the observe -> retranslate -> rerun cycle on fresh
// copies of user/lib (the caller's codefiles are not modified). Each pass
// translates at o.Level with o.Workers workers and runs under o.Budget
// instructions. It errors if pass 2's outcome fails Check against pass
// 1's — the profile being advisory, it never should.
func RunAdaptive(user, lib *codefile.File, o AdaptiveOptions) (*AdaptiveResult, error) {
	res := &AdaptiveResult{}
	degrade := func(op string, err error) {
		res.SourceErrs = append(res.SourceErrs, fmt.Errorf("xrun: adaptive %s: %w", op, err))
	}

	// Pass 1 starts from the fleet aggregate when a source is attached —
	// a fresh machine inherits the whole fleet's observations before its
	// first run.
	var pass1Prof *pgo.Profile
	if o.Source != nil {
		fp := fmt.Sprintf("%016x", user.Fingerprint())
		agg, err := o.Source.Fetch(fp)
		if err != nil {
			degrade("fetch", err)
		} else {
			pass1Prof = agg
		}
	}

	cap1 := pgo.NewCapture()
	r1, rec1, err := runPass(user, lib, o, pass1Prof, cap1)
	if err != nil {
		return nil, fmt.Errorf("xrun: adaptive pass 1: %w", err)
	}
	res.First, res.FirstObs = r1, rec1
	res.Profile = cap1.Profile()

	// Pass 2 runs under the merged fleet aggregate when the push lands,
	// under the local capture otherwise.
	res.Applied = res.Profile
	if o.Source != nil {
		agg, err := o.Source.Push(res.Profile)
		if err != nil {
			degrade("push", err)
		} else if agg != nil {
			res.Applied = agg
		}
	}

	r2, rec2, err := runPass(user, lib, o, res.Applied, nil)
	if err != nil {
		return nil, fmt.Errorf("xrun: adaptive pass 2: %w", err)
	}
	res.Second, res.SecondObs = r2, rec2

	if err := r1.Outcome().Check(r2.Outcome()); err != nil {
		return nil, fmt.Errorf("xrun: adaptive passes diverged: %w", err)
	}
	return res, nil
}

// runPass translates fresh copies of the codefiles (with prof attached if
// non-nil) and runs them observed (with cap attached if non-nil). A cache
// in the options serves the translations when it can.
func runPass(user, lib *codefile.File, o AdaptiveOptions,
	prof *pgo.Profile, cap *pgo.Capture) (*Runner, *obs.Recorder, error) {

	rec := obs.NewRecorder()
	accelerate := core.Accelerate
	if o.Cache != nil {
		accelerate = func(f *codefile.File, opts core.Options) error {
			_, err := o.Cache.Accelerate(f, opts)
			return err
		}
	}
	tu, tl, err := core.AcceleratePair(user, lib, core.Options{
		Level: o.Level, Workers: o.Workers, Obs: rec, Profile: prof,
	}, accelerate)
	if err != nil {
		return nil, nil, err
	}
	r, err := New(tu, tl, o.Config)
	if err != nil {
		return nil, nil, err
	}
	r.Observe(rec)
	if cap != nil {
		r.Capture(cap)
	}
	if err := r.Run(o.Budget); err != nil {
		return nil, nil, err
	}
	return r, rec, nil
}
