package core_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/tns"
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

// inlineSched is a FragSched that runs every job in order on the calling
// goroutine: the fragment path, with no concurrency to blur what it
// allocates.
type inlineSched struct{}

func (inlineSched) Run(n int, job func(k int)) {
	for k := 0; k < n; k++ {
		job(k)
	}
}

// callRing returns a codefile of n two-word procedures, each its own
// fragment: procedure i is PCAL (i+1) mod 1024 (a PCAL operand holds 10
// bits) and EXIT 0, so every fragment holds an entry label that another
// fragment binds.
func callRing(n int) *codefile.File {
	f := &codefile.File{Name: "ring", Code: make([]uint16, 2*n),
		Procs: make([]codefile.Proc, n)}
	for i := range f.Procs {
		f.Code[2*i] = tns.EncPCAL(uint16((i + 1) % 1024))
		f.Code[2*i+1] = tns.EncEXIT(0)
		f.Procs[i] = codefile.Proc{Name: fmt.Sprint("p", i), Entry: uint16(2 * i)}
	}
	return f
}

// TestFragmentBuffersScale: a fragment's buffers and label tables are sized
// by the fragment, not by the file's PEP table, and the merge walks only
// the labels the fragments hold. So translating through fragments
// allocates about as much per procedure at 8,192 procedures as at 2,048,
// and emits the bytes of a Workers=1 translation.
func TestFragmentBuffersScale(t *testing.T) {
	perProc := map[int]float64{}
	for _, n := range []int{2048, 8192} {
		ref := callRing(n)
		if err := core.Accelerate(ref, core.Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		f := callRing(n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := core.Accelerate(f, core.Options{Sched: inlineSched{}})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := f.Marshal()
		want, _ := ref.Marshal()
		if !bytes.Equal(got, want) {
			t.Fatalf("%d procedures: fragment translation differs from Workers=1", n)
		}
		perProc[n] = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
		t.Logf("%d procedures: %.0f B allocated per procedure", n, perProc[n])
	}
	if r := perProc[8192] / perProc[2048]; r > 1.5 {
		t.Errorf("bytes per procedure grew %.2fx from 2,048 to 8,192 procedures, want at most 1.5x", r)
	}
}
