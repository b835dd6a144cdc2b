package main

import (
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"
)

// workload is one closed-loop traffic mix. The harness owns timing; a
// workload owns its inputs, its system under test and its output checks.
type workload interface {
	// clients is how many closed-loop callers issue ops concurrently.
	clients() int
	// inputs generates the seeded inputs once, before any set-up, for a
	// window of the given length.
	inputs(seed int64, seconds int) error
	// setup builds the system under test and warms it, replacing any
	// previous set-up. It does deterministic work only: no sleeps, no
	// polls, nothing drawn from the seed.
	setup() error
	// op performs op i on behalf of client c and checks its output; an
	// error fails the op.
	op(c, i int, s scope) error
	// replay re-issues op i's public calls one layer at a time, outside
	// the op's span, for the per-layer figures (traced runs only).
	replay(i int, s scope) error
	// counters snapshots the workload's cumulative counters.
	counters() map[string]float64
	// finish runs the regime guards and the output checks deferred past
	// the window, returning the rows the simulated-clock metrics are
	// computed over and how many ops the deferred checks failed.
	finish() ([]simRow, int, error)
	// close releases the system under test and deletes its files.
	close()
}

// window is the outcome of one timed, closed-loop window.
type window struct {
	ops, failed int
	elapsed     time.Duration
	latMs       []float64 // successful ops only
	firstErr    error
	cpu         float64 // ms per op
	stealPct    float64
	peakHeapMB  float64        // median over the seconds of each second's peak live heap
	maxHeapMB   float64        // highest live heap sampled
	opsDone     []int          // indices of completed ops, in completion order per client
	sliceSteal  []float64      // steal % per second of the window
	perSec      []atomic.Int64 // ops completed in each second of the window
	before      map[string]float64
	after       map[string]float64
}

func (w *window) opsPerSec() float64 { return float64(w.ops) / w.elapsed.Seconds() }

// runWindow drives w's clients for d: each client issues its next op as
// soon as the previous one returns, and stops issuing at the deadline. The
// window ends when the last op in flight completes. Op indices start at
// first and are handed out in issue order.
func runWindow(wl workload, first int, d time.Duration, tr *tracer) *window {
	runtime.GC() // every window starts from the same heap state
	res := &window{before: wl.counters(), perSec: make([]atomic.Int64, int(d/time.Second)+2)}
	var next atomic.Int64
	next.Store(int64(first))

	stopHeap := sampleHeap()
	stopSlices := sampleSteal()
	cpu0, ticks0 := readCPU(), readTicks()
	start := time.Now()
	deadline := start.Add(d)

	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for c := 0; c < wl.clients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var lat []float64
			var done []int
			var failed int
			var firstErr error
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				s, id := rootScope(tr, i).begin("op")
				t0 := time.Now()
				err := wl.op(c, i, s)
				el := time.Since(t0)
				s.end(id)
				done = append(done, i)
				res.perSec[min(int(time.Since(start)/time.Second), len(res.perSec)-1)].Add(1)
				if err != nil {
					failed++
					if firstErr == nil {
						firstErr = fmt.Errorf("op %d: %w", i, err)
					}
					continue
				}
				lat = append(lat, float64(el)/float64(time.Millisecond))
			}
			mu.Lock()
			res.latMs = append(res.latMs, lat...)
			res.opsDone = append(res.opsDone, done...)
			res.ops += len(done)
			res.failed += failed
			if res.firstErr == nil {
				res.firstErr = firstErr
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = cpuMsPerOp(cpu0, readCPU(), res.ops)
	res.stealPct = stealPct(ticks0, readTicks())
	res.peakHeapMB, res.maxHeapMB = stopHeap()
	res.sliceSteal = stopSlices()
	res.after = wl.counters()
	return res
}

// delta is a counter's growth over the window.
func (w *window) delta(name string) float64 { return w.after[name] - w.before[name] }

// heapEvery is the live-heap sampling period.
const heapEvery = 5 * time.Millisecond

// sampleHeap polls the runtime's live-heap figure (the heap that survived
// the most recent GC) every heapEvery until the returned function is
// called. It reports, in MB, the median over seconds of each second's peak
// (one rare op cannot move it, a heavier op mix does) and the overall peak.
func sampleHeap() (stop func() (perSecond, peak float64)) {
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	read := func() float64 {
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindUint64 {
			return 0
		}
		return float64(sample[0].Value.Uint64()) / (1 << 20)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var samples []float64
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(heapEvery)
		defer t.Stop()
		for {
			samples = append(samples, read())
			select {
			case <-ctx.Done():
				return
			case <-t.C:
			}
		}
	}()
	return func() (float64, float64) {
		cancel()
		<-done
		samples = append(samples, read())
		return secondPeaks(samples, int(time.Second/heapEvery))
	}
}

// secondPeaks splits samples into runs of perSecond, takes each run's
// maximum, and returns the median of those maxima and the overall maximum.
func secondPeaks(samples []float64, perSecond int) (typical, peak float64) {
	var maxima []float64
	for lo := 0; lo < len(samples); lo += perSecond {
		m := 0.0
		for _, v := range samples[lo:min(lo+perSecond, len(samples))] {
			m = max(m, v)
		}
		maxima = append(maxima, m)
		peak = max(peak, m)
	}
	return median(maxima), peak
}

// sampleSteal records the machine's steal share once a second until the
// returned function is called.
func sampleSteal() (stop func() []float64) {
	ctx, cancel := context.WithCancel(context.Background())
	var out []float64
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(time.Second)
		defer t.Stop()
		prev := readTicks()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				cur := readTicks()
				out = append(out, stealPct(prev, cur))
				prev = cur
			}
		}
	}()
	return func() []float64 {
		cancel()
		<-done
		return out
	}
}
