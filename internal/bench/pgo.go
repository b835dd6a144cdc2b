package bench

import (
	"fmt"
	"os"

	"tnsr/internal/codefile"
	"tnsr/internal/obs"
	"tnsr/internal/pgo"
	"tnsr/internal/tns"
	"tnsr/internal/xrun"
)

// CaptureWorkload runs the named workload or example exactly like
// ProfileWorkload, but through the adaptive two-pass cycle with a PGO
// capture attached alongside the telemetry recorder, and returns the
// captured profile with the second pass's execution report. This is what
// `tnsprof -emit-profile` writes to disk. A Source in o pushes the capture
// through a tnsprofd daemon (the second pass then runs under the fleet
// aggregate, `tnsprof -push`), a Cache serves the translations; Level,
// Budget and Config in o are overwritten from the workload parameters.
func CaptureWorkload(name string, level codefile.AccelLevel, iterations int,
	o xrun.AdaptiveOptions) (*pgo.Profile, *obs.Report, error) {

	user, lib, err := buildProfiled(name, iterations)
	if err != nil {
		return nil, nil, err
	}
	o.Level = level
	o.Budget = 4_000_000_000
	o.Config = CycloneRConfig()
	res, err := xrun.RunAdaptive(user, lib, o)
	if err != nil {
		return nil, nil, err
	}
	for _, serr := range res.SourceErrs {
		fmt.Fprintf(os.Stderr, "warning: %v\n", serr)
	}
	if r := res.Second; r.Trap != tns.TrapNone {
		return nil, nil, fmt.Errorf("%s: trap %d at %d", name, r.Trap, r.TrapP)
	}
	res.Profile.Workload = name
	rep := res.Second.Report(res.SecondObs)
	rep.Workload = name
	return res.Profile, rep, nil
}

// AdaptiveAdversarial runs the observe -> retranslate -> rerun cycle on the
// adversarial program (wrong XCAL result-size guess, no hints): the pass-1
// run escapes at every indirect call's return point; the captured dynamic
// RP corrects the guess in pass 2, which should drive rp-conflict escapes
// to zero and shrink interpreter-mode residency — the automated version of
// the hand-written hints AdversarialResidency measures. A Source and a
// Cache in o close the loop through a profile service and serve the
// translations; the other fields of o are overwritten.
func AdaptiveAdversarial(budget int64, o xrun.AdaptiveOptions) (*xrun.AdaptiveResult, error) {
	f, err := AdversarialProgram()
	if err != nil {
		return nil, err
	}
	o.Level = codefile.LevelDefault
	o.Budget = budget
	o.Config = CycloneRConfig()
	return xrun.RunAdaptive(f, nil, o)
}
