package bench

import (
	"fmt"
	"sort"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/obs"
	"tnsr/internal/talc"
	"tnsr/internal/workloads"
)

// ProfileNames lists everything ProfileWorkload can run: the paper's five
// benchmark workloads followed by the example programs, each group sorted.
func ProfileNames() []string {
	names := append([]string{}, workloads.Names...)
	sort.Strings(names)
	var examples []string
	for name := range workloads.ExamplePrograms {
		examples = append(examples, name)
	}
	sort.Strings(examples)
	return append(names, examples...)
}

// buildProfiled builds the named workload or example program. iterations
// applies to workloads only (0 means the bench default).
func buildProfiled(name string, iterations int) (user, lib *codefile.File, err error) {
	if src, ok := workloads.ExamplePrograms[name]; ok {
		user, err = talc.Compile(name, src)
		return user, nil, err
	}
	if iterations <= 0 {
		iterations = Iterations[name]
	}
	w, err := workloads.Build(name, iterations)
	if err != nil {
		return nil, nil, err
	}
	return w.User, w.Lib, nil
}

// ProfileWorkload translates the named workload or example at level with a
// telemetry recorder attached, executes it in mixed mode on the Cyclone/R
// configuration, and returns the complete execution report: mode residency,
// escape-reason histogram, PMap hit rate, per-procedure attribution and
// translation-phase timings.
func ProfileWorkload(name string, level codefile.AccelLevel, iterations int) (*obs.Report, error) {
	user, lib, err := buildProfiled(name, iterations)
	if err != nil {
		return nil, err
	}
	rec := obs.NewRecorder()
	r, err := runAccelerated(user, lib, core.Options{Level: level, Obs: rec})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	rep := r.Report(rec)
	rep.Workload = name
	return rep, nil
}
