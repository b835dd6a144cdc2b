package xlate

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// policyQueue builds a queue with NO workers so claim() can be driven by
// hand — the policy is a pure function of queue state, which makes these
// tests exact instead of probabilistic.
func policyQueue(workers int, fifo bool) *Queue {
	q := &Queue{workers: workers, fifo: fifo}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *Queue) addTask(n int) *qtask {
	t := &qtask{n: n, job: func(int) {}, done: make(chan struct{})}
	t.home = q.nextID % q.workers
	q.nextID++
	q.tasks = append(q.tasks, t)
	return t
}

// TestClaimHomeFirst: a worker drains its own submissions before stealing,
// and an idle worker steals from the task with the most unclaimed work.
func TestClaimHomeFirst(t *testing.T) {
	q := policyQueue(2, false)
	big := q.addTask(10)  // home 0
	small := q.addTask(1) // home 1

	// Worker 1's home task is the small one: it must claim there even
	// though the big task was submitted first and has more work.
	if got, k := q.claim(1); got != small || k != 0 {
		t.Fatalf("worker 1 claimed task %p job %d, want small task job 0", got, k)
	}
	// Worker 0 stays on its own submission.
	if got, k := q.claim(0); got != big || k != 0 {
		t.Fatalf("worker 0 claimed %p job %d, want big task job 0", got, k)
	}
	// Worker 1 is now out of home work: it steals from the biggest task.
	if got, k := q.claim(1); got != big || k != 1 {
		t.Fatalf("worker 1 stole %p job %d, want big task job 1", got, k)
	}
	if q.steals != 1 {
		t.Fatalf("steals = %d, want 1 (home claims are not steals)", q.steals)
	}
}

// TestClaimStealsBiggest: with no home work, the victim is the task with
// the most unclaimed jobs, so the largest submission sheds load fastest.
func TestClaimStealsBiggest(t *testing.T) {
	q := policyQueue(4, false)
	q.addTask(3)          // home 0
	huge := q.addTask(20) // home 1
	q.addTask(5)          // home 2

	// Worker 3 has no home task: must steal from the 20-job task.
	if got, _ := q.claim(3); got != huge {
		t.Fatalf("worker 3 stole from a %d-job task, want the 20-job task", got.n)
	}
}

// TestClaimFIFO: the baseline policy drains tasks strictly in submission
// order — the starvation behavior the stealing mode exists to fix.
func TestClaimFIFO(t *testing.T) {
	q := policyQueue(2, true)
	first := q.addTask(3)
	second := q.addTask(1)

	for k := 0; k < 3; k++ {
		got, gotK := q.claim(k % 2)
		if got != first || gotK != k {
			t.Fatalf("claim %d: task %p job %d, want first task job %d", k, got, gotK, k)
		}
	}
	if got, _ := q.claim(0); got != second {
		t.Fatalf("first task drained but FIFO did not move to the second")
	}
	if q.steals != 0 {
		t.Fatalf("steals = %d; FIFO mode must not count steals", q.steals)
	}
}

// TestQueueRunsEveryJobOnce: concurrent Runs from many submitters, every
// job index executes exactly once, and Run returns only after its own jobs
// finished. Run under -race this is the memory-safety pin for the shared
// pool.
func TestQueueRunsEveryJobOnce(t *testing.T) {
	for _, fifo := range []bool{false, true} {
		q := NewQueue(4, fifo)
		const subs, jobs = 8, 23
		var counts [subs][jobs]atomic.Int32
		var wg sync.WaitGroup
		for s := 0; s < subs; s++ {
			wg.Add(1)
			go func(s int) {
				defer wg.Done()
				q.Run(jobs, func(k int) { counts[s][k].Add(1) })
				// Run has returned: every one of this submission's jobs
				// must already have executed.
				for k := 0; k < jobs; k++ {
					if got := counts[s][k].Load(); got != 1 {
						t.Errorf("fifo=%v sub %d job %d ran %d times at Run return", fifo, s, k, got)
					}
				}
			}(s)
		}
		wg.Wait()
		st := q.Stats()
		if st.Executed != subs*jobs {
			t.Errorf("fifo=%v executed = %d, want %d", fifo, st.Executed, subs*jobs)
		}
		if st.Tasks != 0 || st.Frags != 0 {
			t.Errorf("fifo=%v queue not drained: %+v", fifo, st)
		}
		q.Close()
	}
}

// TestQueuePanicPropagates: a panicking job surfaces on the submitter's
// goroutine after the task drains, and the queue keeps serving others.
func TestQueuePanicPropagates(t *testing.T) {
	q := NewQueue(2, false)
	defer q.Close()

	func() {
		defer func() {
			if p := recover(); p != "boom" {
				t.Errorf("recovered %v, want \"boom\"", p)
			}
		}()
		q.Run(3, func(k int) {
			if k == 1 {
				panic("boom")
			}
		})
		t.Error("Run returned without panicking")
	}()

	// The queue survives: a later submission still completes.
	var n atomic.Int32
	q.Run(4, func(int) { n.Add(1) })
	if n.Load() != 4 {
		t.Errorf("post-panic Run executed %d jobs, want 4", n.Load())
	}
}

// BenchmarkQueueStealVsFIFO is the scheduling acceptance benchmark: one
// large submission plus several small ones, measuring how long the small
// submissions wait once workers start moving. The large submission's jobs
// are gated so every worker is provably busy inside it when the smalls
// enqueue; the gate then opens and the policy decides who goes next.
//
// Two metrics per mode. small_wait_ms/op is each small submission's mean
// completion time from the gate opening, measured inside the worker that
// executes its last fragment (a submitter-goroutine wakeup would measure
// the Go scheduler on small machines, not the queue). large_first/op is
// the policy in the raw: how many large fragments had already started when
// the small submission finished — under FIFO every remaining large
// fragment goes first; with stealing each small submission's home worker
// reaches it after at most a handful.
func BenchmarkQueueStealVsFIFO(b *testing.B) {
	const workers, largeJobs, smalls, smallJobs = 4, 128, 6, 2
	work := func() { // ~10µs of CPU per fragment job
		x := 1
		for i := 0; i < 20000; i++ {
			x = x*1664525 + 1013904223
			if i%5000 == 0 {
				// Real fragment translation allocates and calls constantly —
				// those are Go preemption points. The synthetic loop has
				// none, so on a single-CPU machine one worker goroutine
				// would otherwise drain the whole queue before the others
				// ever run, measuring the Go scheduler instead of the
				// claiming policy. Yielding restores the interleaving a
				// multicore worker pool gets for free.
				runtime.Gosched()
			}
		}
		_ = x
	}
	for _, mode := range []struct {
		name string
		fifo bool
	}{{"steal", false}, {"fifo", true}} {
		b.Run(mode.name, func(b *testing.B) {
			var totalWait time.Duration
			var totalLargeFirst, stolen int64
			for i := 0; i < b.N; i++ {
				q := NewQueue(workers, mode.fifo)
				gate := make(chan struct{})
				var inLarge, largeStarted atomic.Int32
				var release time.Time
				var wg sync.WaitGroup
				wg.Add(1)
				go func() { // the large submission, in flight first
					defer wg.Done()
					q.Run(largeJobs, func(int) {
						inLarge.Add(1)
						<-gate
						largeStarted.Add(1)
						work()
					})
				}()
				// All workers provably busy inside large fragments before
				// any small submission exists.
				for inLarge.Load() < workers {
					runtime.Gosched()
				}
				waitNs := make([]atomic.Int64, smalls)
				largeFirst := make([]atomic.Int32, smalls)
				var left [smalls]atomic.Int32
				for s := 0; s < smalls; s++ {
					left[s].Store(smallJobs)
					wg.Add(1)
					go func(s int) {
						defer wg.Done()
						q.Run(smallJobs, func(int) {
							work()
							if left[s].Add(-1) == 0 { // last fragment: done
								waitNs[s].Store(int64(time.Since(release)))
								largeFirst[s].Store(largeStarted.Load())
							}
						})
					}(s)
				}
				// Every submission is enqueued (the gate holds all the
				// workers inside large fragments, so nothing can drain) —
				// open the gate and let the policy decide who goes first.
				for q.Stats().Tasks < smalls+1 {
					runtime.Gosched()
				}
				release = time.Now()
				close(gate)
				wg.Wait()
				for s := 0; s < smalls; s++ {
					totalWait += time.Duration(waitNs[s].Load())
					totalLargeFirst += int64(largeFirst[s].Load())
				}
				stolen += q.Stats().Steals
				q.Close()
			}
			b.ReportMetric(float64(totalWait.Microseconds())/1000/float64(b.N*smalls), "small_wait_ms/op")
			b.ReportMetric(float64(totalLargeFirst)/float64(b.N*smalls), "large_first/op")
			b.ReportMetric(float64(stolen)/float64(b.N), "steals/op")
		})
	}
}

// TestQueueDropsFinishedTasks: once Run returns, the queue holds nothing
// of the task, so what its job captured — a whole translation's state in
// the service — can be collected.
func TestQueueDropsFinishedTasks(t *testing.T) {
	q := NewQueue(2, false)
	defer q.Close()
	freed := make(chan struct{})
	func() {
		state := new([1 << 10]byte)
		runtime.SetFinalizer(state, func(*[1 << 10]byte) { close(freed) })
		q.Run(4, func(k int) { state[k]++ })
	}()
	for i := 0; i < 100; i++ {
		runtime.GC()
		select {
		case <-freed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("a finished task's job is still reachable from the queue")
}
