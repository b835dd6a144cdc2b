package core_test

import (
	"fmt"
	"testing"

	"tnsr/internal/backend"
	"tnsr/internal/backend/mips"
	"tnsr/internal/backend/ob0"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/obs"
	"tnsr/internal/risc"
	"tnsr/internal/talc"
	"tnsr/internal/workloads"
	"tnsr/internal/xrun"
)

// The three-way differential oracle behind the retargetable-backend claim:
// every shipped program runs through the pure interpreter and through the
// full translate-and-run pipeline once per registered backend, at every
// translation level, on the parallel pipeline (Workers=4 forces the
// worker pool even on a single-CPU runner). Each accelerated run must pass
// xrun.Outcome.Check against the interpreter (halt state, trap code, exit
// status, console output, final memory image) and the telemetry audit
// (xrun.CheckAccounting: no escape for an unclassified reason, recorder
// and runner accounting agreeing). TestDifferentialWorkloads and
// TestDifferentialExamples run the same oracle with a nil Backend, the
// core's default target (it resolves to mips.Default), so with
// TestParallelDeterminism (Workers=N bytes == Workers=1 bytes) they ground
// the parallel pipeline in observable program behaviour, not just stream
// equality. Since both backends are held to the interpreter's
// behaviour, they are transitively held to each other — a target
// assumption baked into the shared analysis core (delay-slot scheduling,
// HI/LO shape, one-word-per-instruction layout) would show up here as an
// ob0 divergence while MIPS stays green.

// diffBackends is the oracle for one program and one backend; a nil be
// is the core's default target.
func diffBackends(t *testing.T, lvl codefile.AccelLevel, be backend.Backend, user, lib *codefile.File) {
	t.Helper()

	want, err := xrun.Interpret(interp.New(user, lib), 30_000_000)
	if err != nil {
		t.Fatal(err)
	}

	auser, alib, err := core.AcceleratePair(user, lib,
		core.Options{Level: lvl, Workers: 4, Backend: be}, core.Accelerate)
	if err != nil {
		t.Fatalf("accelerate: %v", err)
	}
	r, err := xrun.New(auser, alib, risc.Config{MulLatency: 12, DivLatency: 35})
	if err != nil {
		t.Fatal(err)
	}
	resolved := be
	if resolved == nil {
		resolved = mips.Default
	}
	if got := r.Backend().Name(); got != resolved.Name() {
		t.Fatalf("runner resolved backend %q, want %q", got, resolved.Name())
	}
	if r.Degraded {
		t.Fatalf("runner degraded: %s", r.DegradedReason)
	}
	rec := obs.NewRecorder()
	r.Observe(rec)
	if err := r.Run(200_000_000); err != nil {
		t.Fatalf("run: %v (interludes=%d)", err, r.Interludes)
	}

	if err := want.Check(r.Outcome()); err != nil {
		t.Fatal(err)
	}
	if err := xrun.CheckAccounting(r, rec); err != nil {
		t.Error(err)
	}
	// The comparison is only meaningful if translated code actually ran:
	// a silent degrade to full interpretation would match the interpreter
	// vacuously.
	if r.Sim.Instrs == 0 {
		t.Fatalf("no RISC instructions executed: backend %s never engaged", resolved.Name())
	}
}

// oracleBackends are the targets the differential oracle sweeps. Both
// registry instances, by name, so the test also proves registration.
func oracleBackends(t *testing.T) []backend.Backend {
	t.Helper()
	var out []backend.Backend
	for _, name := range []string{"mips", "ob0"} {
		be, ok := backend.ByName(name)
		if !ok {
			t.Fatalf("backend %q not registered", name)
		}
		out = append(out, be)
	}
	return out
}

// diffWorkloads runs diffBackends on be over the paper's workloads at
// every level, naming each subtest prefix<workload>/<level>.
func diffWorkloads(t *testing.T, be backend.Backend, prefix string) {
	for _, name := range workloads.Names {
		for _, lvl := range levels {
			name, lvl := name, lvl
			t.Run(fmt.Sprintf("%s%s/%v", prefix, name, lvl), func(t *testing.T) {
				t.Parallel()
				w, err := workloads.Build(name, 2)
				if err != nil {
					t.Fatal(err)
				}
				diffBackends(t, lvl, be, w.User, w.Lib)
			})
		}
	}
}

// diffExamples is diffWorkloads over the examples/ demos.
func diffExamples(t *testing.T, be backend.Backend, prefix string) {
	for name, src := range workloads.ExamplePrograms {
		for _, lvl := range levels {
			name, src, lvl := name, src, lvl
			t.Run(fmt.Sprintf("%s%s/%v", prefix, name, lvl), func(t *testing.T) {
				t.Parallel()
				f, err := talc.Compile(name, src)
				if err != nil {
					t.Fatal(err)
				}
				diffBackends(t, lvl, be, f, nil)
			})
		}
	}
}

func TestDifferentialBackends(t *testing.T) {
	for _, be := range oracleBackends(t) {
		diffWorkloads(t, be, be.Name()+"/")
		diffExamples(t, be, be.Name()+"/")
	}
}

// TestDifferentialWorkloads and TestDifferentialExamples leave Backend
// nil, as every core caller that names no target does.
func TestDifferentialWorkloads(t *testing.T) { diffWorkloads(t, nil, "") }

func TestDifferentialExamples(t *testing.T) { diffExamples(t, nil, "") }

// TestBackendIdentityBytes pins the registry identity bytes: they are
// stored in codefiles, so they may never change or collide.
func TestBackendIdentityBytes(t *testing.T) {
	if mips.BackendID != 0 || mips.Default.ID() != 0 {
		t.Errorf("mips identity byte must be 0")
	}
	if ob0.BackendID != 1 || ob0.Default.ID() != 1 {
		t.Errorf("ob0 identity byte must be 1")
	}
	if got := backend.Names(); len(got) < 2 {
		t.Errorf("registry names = %v, want at least mips and ob0", got)
	}
}
