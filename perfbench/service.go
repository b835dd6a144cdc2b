package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/millicode"
	"tnsr/internal/tcache"
	"tnsr/internal/xlate"
)

// pollEvery is the clients' fixed result-poll interval. xlate.NewClient's
// default starts at 50 ms and doubles, which would make every cold op's
// latency a multiple of the poll timer instead of the translator's work.
const pollEvery = time.Millisecond

// xlateClients is how many closed-loop callers share the service.
const xlateClients = 2

// service is an in-process tnsxlated: the xlate.Server handler with its
// default configuration on a loopback listener, over a translation cache
// whose store is a fresh memStore.
type service struct {
	mem     *memStore
	cache   *tcache.Cache
	srv     *xlate.Server
	hs      *http.Server
	served  chan struct{}
	clients []*xlate.Client

	submits, cached, polls atomic.Int64
	waitNs                 atomic.Int64
	base                   map[string]float64 // server counters at the last reset
}

func startService() (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	mem := newMemStore()
	cache := tcache.New(mem)
	s := &service{mem: mem, cache: cache, srv: xlate.New(xlate.Config{Cache: cache}), served: make(chan struct{})}
	s.hs = &http.Server{Handler: s.srv}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln)
	}()
	for c := 0; c < xlateClients; c++ {
		cl := xlate.NewClient("http://"+ln.Addr().String(), "")
		cl.PollInterval, cl.PollMax = pollEvery, pollEvery
		s.clients = append(s.clients, cl)
	}
	return s, nil
}

// stop closes the listener and connections, waits for Serve to return,
// drains the translation queue and frees the store.
func (s *service) stop() {
	s.hs.Close()
	<-s.served
	if err := s.srv.Shutdown(context.Background()); err != nil {
		fmt.Println("xlate service shutdown:", err)
	}
	s.mem.free()
}

// accelerate is xlate.Client.Accelerate spelled out one call at a time, so
// each call gets its own span: Submit, Fetch every pollEvery until the
// result is ready, then the graft onto f. It returns the served codefile
// bytes. Any error fails the op: the service is healthy and on loopback,
// so there is nothing to retry.
func (s *service) accelerate(sc scope, c int, f *codefile.File, opts core.Options) ([]byte, error) {
	cl := s.clients[c]
	var (
		st  *xlate.Status
		err error
	)
	sc.call("xlate.submit", func(scope) { st, err = cl.Submit(f, opts) })
	if err != nil {
		return nil, err
	}
	s.submits.Add(1)
	if st.State == xlate.StateFailed {
		return nil, fmt.Errorf("translation failed: %s", st.Error)
	}
	if st.Cached {
		s.cached.Add(1)
	}
	waitFrom := time.Now()
	var (
		cf   *codefile.File
		data []byte
	)
	for {
		fs, id := sc.begin("xlate.fetch")
		t0 := time.Now()
		cf, data, err = cl.Fetch(st.Key)
		if err != nil {
			fs.end(id)
			return nil, err
		}
		if cf != nil {
			fs.end(id)
			s.waitNs.Add(int64(t0.Sub(waitFrom)))
			break
		}
		fs.endAs(id, "xlate.poll")
		s.polls.Add(1)
		time.Sleep(pollEvery)
	}
	sc.call("xlate.graft", func(scope) { err = graft(f, cf, opts) })
	return data, err
}

// graft is the client's gate on a fetched codefile (fingerprint check and
// AccelSection.Verify) before adopting its acceleration section.
func graft(f, cf *codefile.File, opts core.Options) error {
	if cf.Accel == nil {
		return errors.New("served codefile has no acceleration section")
	}
	if cf.Fingerprint() != f.Fingerprint() {
		return errors.New("served codefile fingerprint does not match")
	}
	if err := cf.Accel.Verify(cf, int(codeBase(opts))); err != nil {
		return err
	}
	f.Accel = cf.Accel
	return nil
}

func codeBase(opts core.Options) uint32 {
	if opts.CodeBase == 0 {
		return millicode.UserCodeBase
	}
	return opts.CodeBase
}

// counters are the service's counters since the last reset: the harness's
// own exchange counts, the queue's fragment and steal counts, and the
// translation cache's hits and misses (which only Cache.Accelerate, the
// translate path, moves).
func (s *service) counters() map[string]float64 {
	m := s.serverCounts()
	for k, v := range s.base {
		m[k] -= v
	}
	m["xlate.submits"] = float64(s.submits.Load())
	m["xlate.cached"] = float64(s.cached.Load())
	m["xlate.polls"] = float64(s.polls.Load())
	m["xlate.wait_ns"] = float64(s.waitNs.Load())
	return m
}

func (s *service) serverCounts() map[string]float64 {
	q := s.srv.Queue().Stats()
	cs := s.cache.Stats()
	return map[string]float64{
		"xlate.frags":   float64(q.Executed),
		"xlate.steals":  float64(q.Steals),
		"tcache.hits":   float64(cs.Hits),
		"tcache.misses": float64(cs.Misses),
	}
}

// resetCounts zeroes every counter at the end of set-up, so a workload's
// totals cover its ops alone.
func (s *service) resetCounts() {
	s.submits.Store(0)
	s.cached.Store(0)
	s.polls.Store(0)
	s.waitNs.Store(0)
	s.base = s.serverCounts()
}

// rowAccel translates a simulated row through the service when the submit
// protocol can express its target, and locally otherwise (see
// probeBackend).
func (s *service) rowAccel(f *codefile.File, opts core.Options) error {
	if opts.Backend != nil && opts.Backend.ID() != mipsBackend().ID() {
		return core.Accelerate(f, opts)
	}
	_, err := s.accelerate(scope{}, 0, f, opts)
	return err
}

// probeBackend submits one codefile for ob0 and prints what the service
// served. xlate.SubmitRequest has no field for core.Options.Backend, so
// the service translates every submission for mips; the xlate workloads
// therefore cover mips alone, and every xlate run prints this probe so the
// gap stays visible until the protocol carries the target.
func (s *service) probeBackend() error {
	ob0 := backends()[1]
	f, err := buildUser("tal", probeIters)
	if err != nil {
		return err
	}
	if _, err := s.accelerate(scope{}, 0, f, userOpts(nil, codefile.LevelDefault, ob0)); err != nil {
		return fmt.Errorf("backend probe: %w", err)
	}
	if got := f.Accel.BackendID; got != ob0.ID() {
		fmt.Printf("xlate backend probe: DEFECT: a submit for %s was served a section for backend id %d, want %d (the submit protocol drops Options.Backend)\n",
			ob0.Name(), got, ob0.ID())
		return nil
	}
	fmt.Printf("xlate backend probe: a submit for %s was served a section for %s\n", ob0.Name(), ob0.Name())
	return nil
}

// encoded serializes a codefile.
func encoded(f *codefile.File) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runDir makes a fresh directory for one set-up's replay store under the
// benchmark's build directory; the workload deletes it.
func runDir(kind string) (string, error) {
	root := filepath.Join(".bench_build", "perfbench", "run")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, kind+"-")
}
