package main

import (
	"bytes"
	"fmt"
	"os"
	"strings"

	"tnsr/internal/bench"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/store"
	"tnsr/internal/tcache"
	"tnsr/internal/workloads"
)

// xlate-warm: resubmit one of the entries populated in set-up; the service
// answers from its store without translating. The entries are the five
// programs at benchtab's iteration counts plus the ET1 library, at every
// level; mips only, see service.probeBackend.
type warmWorkload struct {
	seed    int64
	entries []warmEntry

	svc *service

	// The replays' filesystem store, built on first use.
	dir   string
	st    *store.Dir
	cache *tcache.Cache // over st
	names []string      // per entry, its key in st
}

type warmEntry struct {
	label string
	file  *codefile.File // pristine
	opts  core.Options
	want  []byte // a local core.Accelerate of the same input, serialized
}

func newWarm() *warmWorkload { return &warmWorkload{} }

func (w *warmWorkload) clients() int { return xlateClients }

func (w *warmWorkload) inputs(seed int64, _ int) error {
	w.seed = seed
	add := func(label string, f *codefile.File, opts core.Options) error {
		c := pristine(f)
		if err := core.Accelerate(c, opts); err != nil {
			return err
		}
		want, err := encoded(c)
		if err != nil {
			return err
		}
		w.entries = append(w.entries, warmEntry{label: label, file: f, opts: opts, want: want})
		return nil
	}
	be := mipsBackend()
	for _, name := range paperNames {
		wl, err := workloads.Build(name, bench.Iterations[name])
		if err != nil {
			return err
		}
		for _, lvl := range bench.Levels {
			if err := add(name+"/"+lvl.String(), wl.User, userOpts(wl.LibSummaries, lvl, be)); err != nil {
				return err
			}
			if wl.Lib != nil {
				if err := add(name+"-lib/"+lvl.String(), wl.Lib, libOpts(lvl, be)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (w *warmWorkload) setup() error {
	w.close()
	var err error
	if w.svc, err = startService(); err != nil {
		return err
	}
	// Populate every entry (cold), then one warm pass over all of them.
	for pass := 0; pass < 2; pass++ {
		for k, e := range w.entries {
			if _, err := w.svc.accelerate(scope{}, k%xlateClients, pristine(e.file), e.opts); err != nil {
				return fmt.Errorf("%s: %w", e.label, err)
			}
		}
	}
	w.svc.resetCounts()
	return nil
}

// replayStore writes the entries into a store.Dir under the benchmark's
// build directory, once, so the replays read the same entries from a
// filesystem store by the file name the cache gives each key. Only traced
// runs need it, so untraced runs never touch the disk.
func (w *warmWorkload) replayStore() error {
	if w.cache != nil {
		return nil
	}
	var err error
	if w.dir, err = runDir("warm"); err != nil {
		return err
	}
	if w.st, err = store.OpenDir(w.dir); err != nil {
		return err
	}
	cache := tcache.New(w.st)
	w.names = make([]string, len(w.entries))
	for k, e := range w.entries {
		cf, err := codefile.Read(bytes.NewReader(e.want))
		if err != nil {
			return err
		}
		key, err := e.opts.TransKey(e.file.Fingerprint())
		if err != nil {
			return err
		}
		if err := cache.Put(key, cf); err != nil {
			return err
		}
		ents, err := w.st.List()
		if err != nil {
			return err
		}
		for _, se := range ents {
			if strings.HasPrefix(se.Key, key) {
				w.names[k] = se.Key
			}
		}
		if w.names[k] == "" {
			return fmt.Errorf("%s: no store entry under key %s", e.label, key)
		}
	}
	w.cache = cache
	return nil
}

// entry draws op i's entry from the workload seed.
func (w *warmWorkload) entry(i int) int {
	return int(splitmix(uint64(w.seed)<<32^uint64(i)) % uint64(len(w.entries)))
}

func (w *warmWorkload) op(c, i int, s scope) error {
	e := w.entries[w.entry(i)]
	data, err := w.svc.accelerate(s, c, pristine(e.file), e.opts)
	if err != nil {
		return err
	}
	if !bytes.Equal(data, e.want) {
		return fmt.Errorf("%s: served codefile differs from a local translation", e.label)
	}
	return nil
}

// replay re-runs the read path a hit takes on op i's entry, against a
// filesystem store, one layer per span: the verified cache read, then its
// parts — the raw store read, the strict parse and the acceleration-section
// verify.
func (w *warmWorkload) replay(i int, s scope) error {
	if err := w.replayStore(); err != nil {
		return err
	}
	k := w.entry(i)
	e := w.entries[k]
	fp := e.file.Fingerprint()
	key, err := e.opts.TransKey(fp)
	if err != nil {
		return err
	}
	base := codeBase(e.opts)
	var ok bool
	s.call("tcache.get_verified", func(scope) { _, ok = w.cache.GetVerified(key, fp, base) })
	if !ok {
		return fmt.Errorf("%s: not in the store", e.label)
	}
	var data []byte
	s.call("store.get", func(scope) { data, err = w.st.Get(w.names[k]) })
	if err != nil {
		return err
	}
	var cf *codefile.File
	s.call("codefile.read", func(scope) { cf, err = codefile.Read(bytes.NewReader(data)) })
	if err != nil {
		return err
	}
	s.call("codefile.verify", func(scope) { err = cf.Accel.Verify(cf, int(base)) })
	return err
}

func (w *warmWorkload) counters() map[string]float64 { return w.svc.counters() }

func (w *warmWorkload) finish() ([]simRow, int, error) {
	c := w.svc.counters()
	if err := guardXlateWarm(xlateCounts(c, int(c["xlate.submits"]))); err != nil {
		return nil, 0, err
	}
	if err := w.svc.probeBackend(); err != nil {
		return nil, 0, err
	}
	rows, err := paperRows(w.svc.rowAccel)
	return rows, 0, err
}

func (w *warmWorkload) close() {
	if w.svc != nil {
		w.svc.stop()
		w.svc = nil
	}
	if w.dir != "" {
		os.RemoveAll(w.dir)
		w.dir, w.st, w.cache = "", nil, nil
	}
}
