// Package xlate is translation as a service: a long-running daemon
// (cmd/tnsxlated) that accepts TNS codefiles over HTTP, translates them
// through the same core.Accelerate every local tool uses, stores the
// accelerated codefiles in a content-addressed store keyed by
// core.Options.TransKey, and serves them back to any client. Determinism is
// what makes the service sound: the TransKey pins every output-affecting
// knob plus the input fingerprint, translation emits byte-identical
// sections under any scheduler, and every served byte re-passes the full
// load gates (v5 checksums, fingerprint recheck, AccelSection.Verify) on
// the way out — so a remote translation is indistinguishable from a local
// one, and a damaged store entry degrades to a retranslation, never to
// wrong code.
//
// The scheduling contribution is the Queue: where PR 1's worker pool
// parallelized fragments WITHIN one translation, the Queue generalizes it
// ACROSS concurrently submitted codefiles. Every submission's fragment jobs
// enter one shared pool; each submission has a home worker so a lone
// translation still fans out exactly like the private pool, and idle
// workers steal fragments from the submission with the most work left —
// so a large codefile cannot starve a small one submitted after it, and
// total throughput tracks worker count, not submission count. Results
// merge positionally per codefile (core.translateSched), so interleaving
// changes wall-clock only.
package xlate

import (
	"fmt"
	"slices"
	"sync"
)

// qtask is one submission's fragment jobs inside the queue.
type qtask struct {
	home    int         // worker that claims this task before stealing
	n       int         // total fragment jobs
	next    int         // next unclaimed job index
	running int         // jobs claimed but not yet finished
	job     func(k int) // translates fragment k (panics recovered)
	done    chan struct{}
	panics  []any // first recovered panic, re-raised in Run
}

// Queue is a shared fragment scheduler: a fixed pool of workers executing
// the fragment jobs of every concurrently running translation. It
// implements core.FragSched, so plugging it into core.Options.Sched routes
// a translation's fan-out through the shared pool instead of a private one.
//
// Claiming policy (the work-stealing mode): a worker first claims from
// tasks whose home worker it is, in submission order; with no home work it
// steals from the task with the most unclaimed jobs. Home assignment is
// round-robin over workers, so disjoint submissions spread across the pool
// and a solo submission still gets every worker (all of them steal into
// it). FIFO mode (the measured baseline) claims strictly from the earliest
// submitted task — exactly the policy under which a large submission
// starves every later one; BenchmarkQueueStealVsFIFO and the /metrics
// steal counters quantify the difference.
type Queue struct {
	workers int
	fifo    bool

	mu     sync.Mutex
	cond   *sync.Cond
	tasks  []*qtask // submission order
	nextID int
	closed bool

	steals   int64 // claims by a non-home worker
	executed int64 // fragment jobs completed
}

// QueueStats is a point-in-time view for /metrics.
type QueueStats struct {
	Tasks    int   // translations currently queued or running
	Frags    int   // fragment jobs not yet claimed
	Steals   int64 // cross-submission claims by idle workers
	Executed int64 // fragment jobs completed
}

// NewQueue starts a queue with n workers (n < 1 panics: a zero-worker
// queue deadlocks its first Run). Close releases the workers.
func NewQueue(n int, fifo bool) *Queue {
	if n < 1 {
		panic(fmt.Sprintf("xlate: NewQueue: %d workers", n))
	}
	q := &Queue{workers: n, fifo: fifo}
	q.cond = sync.NewCond(&q.mu)
	for id := 0; id < n; id++ {
		go q.worker(id)
	}
	return q
}

// Close stops the workers after their in-flight jobs finish. Run must not
// be called after Close.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Stats snapshots the queue counters.
func (q *Queue) Stats() QueueStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := QueueStats{Steals: q.steals, Executed: q.executed}
	for _, t := range q.tasks {
		s.Tasks++
		s.Frags += t.n - t.next
	}
	return s
}

// Run implements core.FragSched: it enqueues n fragment jobs as one task
// and blocks until all have executed. Safe for concurrent use — that is
// the point: each concurrent Run is one submitted codefile, and the
// workers interleave their fragments. A panicking job is re-raised here,
// on the submitting translation's goroutine, after the task drains.
func (q *Queue) Run(n int, job func(k int)) {
	if n <= 0 {
		return
	}
	t := &qtask{n: n, job: job, done: make(chan struct{})}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		panic("xlate: Run on closed Queue")
	}
	t.home = q.nextID % q.workers
	q.nextID++
	q.tasks = append(q.tasks, t)
	q.mu.Unlock()
	q.cond.Broadcast()
	<-t.done
	if len(t.panics) > 0 {
		panic(t.panics[0])
	}
}

// claim picks the next fragment job for worker id under q.mu, returning
// the task and job index, or nil when no work is claimable. Steal counting
// happens here: any claim from a task whose home is another worker.
func (q *Queue) claim(id int) (*qtask, int) {
	if q.fifo {
		for _, t := range q.tasks {
			if t.next < t.n {
				return q.take(t, id)
			}
		}
		return nil, -1
	}
	// Home first, in submission order: a worker drains its own
	// submissions before helping others, which keeps small disjoint
	// submissions from all piling onto one victim task.
	for _, t := range q.tasks {
		if t.home == id && t.next < t.n {
			return q.take(t, id)
		}
	}
	// Steal from the task with the most unclaimed work: the largest
	// submission sheds load fastest, which is exactly the anti-starvation
	// property (a small task's home worker reaches it immediately, and
	// big tasks attract every idle worker).
	var best *qtask
	for _, t := range q.tasks {
		if t.next < t.n && (best == nil || t.n-t.next > best.n-best.next) {
			best = t
		}
	}
	if best == nil {
		return nil, -1
	}
	return q.take(best, id)
}

func (q *Queue) take(t *qtask, id int) (*qtask, int) {
	k := t.next
	t.next++
	t.running++
	if t.home != id && !q.fifo {
		q.steals++ // FIFO has no stealing notion: it just drains in order
	}
	return t, k
}

// worker is one pool goroutine: claim, execute outside the lock, retire.
func (q *Queue) worker(id int) {
	q.mu.Lock()
	for {
		t, k := q.claim(id)
		if t == nil {
			if q.closed {
				q.mu.Unlock()
				return
			}
			q.cond.Wait()
			continue
		}
		q.mu.Unlock()

		func() {
			defer func() {
				if p := recover(); p != nil {
					q.mu.Lock()
					t.panics = append(t.panics, p)
					q.mu.Unlock()
				}
			}()
			t.job(k)
		}()

		q.mu.Lock()
		t.running--
		q.executed++
		if t.next == t.n && t.running == 0 {
			// Delete zeroes the slot it vacates, so the backing array
			// does not keep the finished job, and the translation state
			// it captured, alive.
			if i := slices.Index(q.tasks, t); i >= 0 {
				q.tasks = slices.Delete(q.tasks, i, i+1)
			}
			close(t.done)
		}
	}
}
