package bench

import (
	"runtime"
	"testing"

	"tnsr/internal/core"
	"tnsr/internal/workloads"
)

// Translation throughput: how fast the Accelerator itself runs. The paper
// weighs static translation cost against dynamic translation's pauses, so
// the translator's own wall-clock matters; the parallel pipeline buys it
// back with cores. The TAL-compiler workload is the largest codefile in the
// suite, giving the worker pool the most procedures to spread.

func benchAccelerate(b *testing.B, workers int) {
	w, err := workloads.Build("tal", 4)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Workers: workers}
	b.SetBytes(int64(2 * len(w.User.Code))) // TNS code words are 16-bit
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := core.Accelerate(w.User, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAccelerateSerial is the Workers=1 reference pipeline.
func BenchmarkAccelerateSerial(b *testing.B) { benchAccelerate(b, 1) }

// BenchmarkAccelerateParallel fans translation out to every CPU. The
// emitted section is byte-identical to the serial run (see
// core.TestParallelDeterminism); only the wall-clock changes.
func BenchmarkAccelerateParallel(b *testing.B) {
	benchAccelerate(b, runtime.GOMAXPROCS(0))
}
