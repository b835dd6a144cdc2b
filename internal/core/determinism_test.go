package core_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/workloads"
)

// The parallel pipeline's contract: the acceleration section is
// byte-identical for every worker count, and repeated translations are
// byte-identical to each other (no map-iteration order, goroutine
// scheduling or allocator state may leak into the output). The serialized
// codefile covers everything — RISC words, entry table, ExpectedRP, PMap
// and statistics.

// accelBytes builds the named workload and returns its codefiles
// translated with the given worker count and serialized (pairBytes).
func accelBytes(t *testing.T, name string, level codefile.AccelLevel, workers int) []byte {
	t.Helper()
	w, err := workloads.Build(name, 3)
	if err != nil {
		t.Fatal(err)
	}
	return pairBytes(t, w.User, w.Lib, core.Options{Level: level, Workers: workers})
}

// pairBytes translates user and lib under opts (core.AcceleratePair) and
// returns the serialized results, the user file's first.
func pairBytes(t *testing.T, user, lib *codefile.File, opts core.Options) []byte {
	t.Helper()
	u, l, err := core.AcceleratePair(user, lib, opts, core.Accelerate)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, f := range []*codefile.File{u, l} {
		if f == nil {
			continue
		}
		if _, err := f.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestParallelDeterminism proves the tentpole claim for every workload:
// Workers=1 (the serial reference pipeline), Workers=4 (forces the pool
// even on a single-CPU runner) and Workers=GOMAXPROCS all produce the same
// bytes, and each configuration is stable across three repeated runs.
func TestParallelDeterminism(t *testing.T) {
	counts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, name := range workloads.Names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref := accelBytes(t, name, codefile.LevelDefault, 1)
			for _, workers := range counts {
				for run := 0; run < 3; run++ {
					got := accelBytes(t, name, codefile.LevelDefault, workers)
					if !bytes.Equal(got, ref) {
						t.Fatalf("workers=%d run=%d: output differs from serial reference (%d vs %d bytes)",
							workers, run, len(got), len(ref))
					}
				}
			}
		})
	}
}

// TestParallelDeterminismLevels re-proves byte-identity at the other two
// translation levels on one CPU-bound and the one library-heavy workload.
func TestParallelDeterminismLevels(t *testing.T) {
	for _, name := range []string{"dhry16", "et1"} {
		for _, lvl := range []codefile.AccelLevel{codefile.LevelStmtDebug, codefile.LevelFast} {
			name, lvl := name, lvl
			t.Run(fmt.Sprintf("%s/%v", name, lvl), func(t *testing.T) {
				t.Parallel()
				ref := accelBytes(t, name, lvl, 1)
				got := accelBytes(t, name, lvl, 4)
				if !bytes.Equal(got, ref) {
					t.Fatalf("workers=4 differs from serial at level %v", lvl)
				}
			})
		}
	}
}
