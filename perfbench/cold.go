package main

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/store"
	"tnsr/internal/workloads"
)

// xlate-cold: submit→accelerated for a codefile the store has never seen.
// Inputs are the five paper programs with seeded iteration counts (the
// count is compiled into the code, so each is a new fingerprint), cycling
// over the three levels; mips only, see service.probeBackend.
type coldWorkload struct {
	combos []combo
	sums   []map[uint16]int8 // per program, its library summaries
	iters  [][]int           // per program, its seeded iteration counts

	poolMu  sync.Mutex
	pool    [][][]byte   // per program, per generation: the serialized codefile, in poolMem
	late    atomic.Int64 // programs compiled by ops, the pool exhausted
	poolMem arena

	dir  string // this set-up's replay store
	svc  *service
	side *store.Dir // the replays' store.Dir, on the checkout's filesystem

	mu     sync.Mutex
	hashes map[int][sha256.Size]byte // op -> SHA-256 of the served codefile
}

func newCold() *coldWorkload { return &coldWorkload{} }

func (w *coldWorkload) clients() int { return xlateClients }

// uniqueOps marks a workload whose op indices must not repeat in a run: a
// repeated input would be answered from the store.
func (w *coldWorkload) uniqueOps() {}

// coldPoolRate sizes the precompiled input pool: the ops per second of
// window it covers before ops must compile their own programs.
const coldPoolRate = 1000

func (w *coldWorkload) inputs(seed int64, seconds int) error {
	w.combos = paperCombos(mipsBackend())
	for _, name := range paperNames {
		wl, err := workloads.Build(name, 1)
		if err != nil {
			return err
		}
		w.sums = append(w.sums, wl.LibSummaries)
	}
	gens := (coldPoolRate*seconds + len(w.combos) - 1) / len(w.combos)
	w.iters = coldIterations(seed, maxIters)
	w.pool = make([][][]byte, len(paperNames))
	errs := make([]error, len(paperNames))
	var wg sync.WaitGroup
	for p := range paperNames {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for g := 0; g < gens && errs[p] == nil; g++ {
				var raw []byte
				if raw, errs[p] = w.compileRaw(paperNames[p], w.iters[p][g]); errs[p] == nil {
					w.pool[p] = append(w.pool[p], raw)
				}
			}
		}(p)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// compileRaw compiles a paper program and keeps it serialized in the
// pool's arena, so the inputs add nothing to the heap the window measures.
func (w *coldWorkload) compileRaw(name string, iters int) ([]byte, error) {
	f, err := buildUser(name, iters)
	if err != nil {
		return nil, err
	}
	raw, err := encoded(f)
	if err != nil {
		return nil, err
	}
	return w.poolMem.copyIn(raw)
}

// input returns op i's codefile and options, compiling the program if the
// precompiled pool is exhausted.
func (w *coldWorkload) input(i int) (*codefile.File, core.Options, error) {
	cb := w.combos[i%len(w.combos)]
	g := i / len(w.combos)
	if g >= len(w.iters[cb.prog]) {
		return nil, core.Options{}, fmt.Errorf("op %d: iteration counts exhausted", i)
	}
	w.poolMu.Lock()
	for len(w.pool[cb.prog]) <= g {
		raw, err := w.compileRaw(paperNames[cb.prog], w.iters[cb.prog][len(w.pool[cb.prog])])
		if err != nil {
			w.poolMu.Unlock()
			return nil, core.Options{}, err
		}
		w.pool[cb.prog] = append(w.pool[cb.prog], raw)
		w.late.Add(1)
	}
	raw := w.pool[cb.prog][g]
	w.poolMu.Unlock()
	f, err := codefile.Read(bytes.NewReader(raw))
	return f, userOpts(w.sums[cb.prog], cb.lvl, cb.be), err
}

func (w *coldWorkload) setup() error {
	w.teardown()
	var err error
	if w.svc, err = startService(); err != nil {
		return err
	}
	if w.dir, err = runDir("cold"); err != nil {
		return err
	}
	if w.side, err = store.OpenDir(w.dir); err != nil {
		return err
	}
	// Warm-up: every combo once, at iteration counts no seed draws.
	for k, cb := range w.combos {
		f, err := buildUser(paperNames[cb.prog], warmupIters+k)
		if err != nil {
			return err
		}
		if _, err := w.svc.accelerate(scope{}, k%xlateClients, f, userOpts(w.sums[cb.prog], cb.lvl, cb.be)); err != nil {
			return err
		}
	}
	w.mu.Lock()
	w.hashes = map[int][sha256.Size]byte{}
	w.mu.Unlock()
	w.svc.resetCounts()
	return nil
}

func (w *coldWorkload) op(c, i int, s scope) error {
	f, opts, err := w.input(i)
	if err != nil {
		return err
	}
	data, err := w.svc.accelerate(s, c, f, opts)
	if err != nil {
		return err
	}
	h := sha256.Sum256(data)
	w.mu.Lock()
	w.hashes[i] = h
	w.mu.Unlock()
	return nil
}

// replay translates op i's input locally with a recorder attached (the
// translation the service ran), serializes it and puts it in a store.Dir
// (the service's write path, on a filesystem store).
func (w *coldWorkload) replay(i int, s scope) error {
	f, opts, err := w.input(i)
	if err != nil {
		return err
	}
	if err := accelerateObserved(s, f, opts); err != nil {
		return err
	}
	var data []byte
	s.call("codefile.write", func(scope) { data, err = encoded(f) })
	if err != nil {
		return err
	}
	s.call("store.put", func(scope) { err = w.side.Put(fmt.Sprintf("replay-%d.tns", i), data) })
	return err
}

func (w *coldWorkload) counters() map[string]float64 { return w.svc.counters() }

// finish checks the regime, then every op's output against a local
// core.Accelerate of the same input, then probes the backend gap and
// builds the 30 benchtab rows.
func (w *coldWorkload) finish() ([]simRow, int, error) {
	if err := guardXlateCold(xlateCounts(w.svc.counters(), len(w.hashes))); err != nil {
		return nil, 0, err
	}
	if n := w.late.Load(); n > 0 {
		fmt.Printf("inputs: pool exhausted, %d programs compiled inside ops\n", n)
	}
	failed, err := w.checkOutputs()
	if err != nil {
		return nil, 0, err
	}
	if err := w.svc.probeBackend(); err != nil {
		return nil, 0, err
	}
	rows, err := paperRows(w.svc.rowAccel)
	return rows, failed, err
}

// checkOutputs recomputes every op's expected bytes locally, on as many
// workers as there are clients, and counts the ops whose served codefile
// differed.
func (w *coldWorkload) checkOutputs() (int, error) {
	ids := make(chan int)
	var (
		bad   atomic.Int64
		errMu sync.Mutex
		first error
		wg    sync.WaitGroup
	)
	for k := 0; k < xlateClients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range ids {
				f, opts, err := w.input(i)
				if err == nil {
					err = core.Accelerate(f, opts)
				}
				var data []byte
				if err == nil {
					data, err = encoded(f)
				}
				switch {
				case err != nil:
					errMu.Lock()
					if first == nil {
						first = err
					}
					errMu.Unlock()
				case sha256.Sum256(data) != w.hashes[i]:
					bad.Add(1)
				}
			}
		}()
	}
	for i := range w.hashes {
		ids <- i
	}
	close(ids)
	wg.Wait()
	return int(bad.Load()), first
}

// teardown releases one set-up: the service and the replay store.
func (w *coldWorkload) teardown() {
	if w.svc != nil {
		w.svc.stop()
		w.svc = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir = ""
	}
}

func (w *coldWorkload) close() {
	w.teardown()
	w.poolMem.free()
}
