package xlate

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/millicode"
	"tnsr/internal/svc"
	"tnsr/internal/tcache"
)

// Default limits; Config zero values fall back to these.
const (
	// DefaultMaxBody bounds a submit body: codefile (base64) + profile +
	// knobs. Generated codefiles are tens of KB; 64 MiB leaves room for
	// real programs without letting one request exhaust the daemon.
	DefaultMaxBody = 64 << 20
)

// xlatePrefix is the resource path: POST submits a codefile, GET fetches
// the accelerated result by its content-addressed key.
const xlatePrefix = "/v1/xlate/"

// Config parameterizes a Server.
type Config struct {
	// Cache is the content-addressed codefile store (and translation
	// executor): entries keyed by core.Options.TransKey, every byte served
	// from it re-verified on the way out. Required.
	Cache *tcache.Cache

	// Limits is the /v1 admission policy the service chassis enforces:
	// bearer token, submit size cap (<= 0 means DefaultMaxBody) and
	// per-client rate limit.
	svc.Limits

	// Workers sizes the shared fragment pool (<= 0 means
	// runtime.GOMAXPROCS(0)).
	Workers int
}

// Server is the tnsxlated HTTP surface: the service chassis around the
// submit and fetch routes, plus the shared translation queue. Close
// releases the queue workers.
type Server struct {
	cfg Config
	c   *svc.Chassis
	q   *Queue

	// jobWG tracks the in-flight translations Shutdown waits for.
	jobWG sync.WaitGroup

	jobMu sync.Mutex
	jobs  map[string]*jobState // TransKey -> submission state

	// Counters for /metrics (see metrics.go).
	submissions atomic.Int64 // accepted submits
	cachedSubs  atomic.Int64 // submits answered entirely from the store
	done        atomic.Int64 // translations completed
	failed      atomic.Int64 // translations failed
	served      atomic.Int64 // accelerated codefiles served (GET 200)
	swept       int64        // torn write temporaries reclaimed at startup
}

// jobState tracks one submitted translation by its TransKey. It survives
// completion so a later GET knows the code base to verify against and a
// failed translation stays diagnosable.
type jobState struct {
	state  string // StateQueued .. StateFailed
	cached bool
	base   uint32 // code base the translation verifies against
	err    string
}

// maxJobs bounds the job table; on overflow, finished entries are dropped
// (their results live in the store — forgetting one costs a GET the
// remembered code base, which the lookup fallback recovers).
const maxJobs = 4096

// New builds a Server and starts its translation queue.
func New(cfg Config) *Server {
	if cfg.Cache == nil {
		panic("xlate: New: Config.Cache is required")
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	s := &Server{cfg: cfg, q: NewQueue(cfg.Workers, false), jobs: map[string]*jobState{}}
	s.c = svc.New(cfg.Limits, svc.Routes{Family: "tnsr_xlated",
		Prefix: strings.TrimSuffix(xlatePrefix, "/"), Serve: s.route, Metrics: s.writeMetrics})
	// Restart recovery: a previous life killed mid-translation leaves torn
	// write temporaries in the store. They were never visible to any read
	// path; sweeping reclaims them before traffic arrives. In-flight
	// submissions died with the old process — clients re-submit, and the
	// content-addressed key makes the replay idempotent.
	if n, err := cfg.Cache.Sweep(); err == nil {
		s.swept = int64(n)
	}
	return s
}

// Close stops the queue workers after in-flight fragments finish.
func (s *Server) Close() { s.q.Close() }

// ServeHTTP is the chassis's handler: the open probes, then the admission
// checks, then route.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.c.ServeHTTP(w, r) }

// SetDraining flips the drain flag: while draining, new submissions are
// refused with 503 + Retry-After, but polls and result fetches still serve
// — a client of an in-flight translation gets its bytes.
func (s *Server) SetDraining(on bool) { s.c.SetDraining(on) }

// Draining reports the drain flag (the daemon's signal handler and tests
// read it; /metrics exposes it as a gauge).
func (s *Server) Draining() bool { return s.c.Draining() }

// Shutdown drains the server: refuse new submissions, wait for in-flight
// translations to finish (bounded by ctx), then stop the queue workers.
// After Shutdown returns nil, every accepted submission has a terminal
// state and its result (when successful) is durably in the store.
func (s *Server) Shutdown(ctx context.Context) error {
	s.c.SetDraining(true)
	done := make(chan struct{})
	go func() {
		s.jobWG.Wait()
		close(done)
	}()
	select {
	case <-ctx.Done():
		return fmt.Errorf("xlate: shutdown: %w", ctx.Err())
	case <-done:
	}
	s.q.Close()
	return nil
}

// Queue exposes the shared scheduler (the daemon's own tools and tests
// read its stats; fleet hosts can submit local translations through it).
func (s *Server) Queue() *Queue { return s.q }

// Swept reports how many torn-write temporaries the startup sweep
// reclaimed (the daemon logs it; /metrics exposes it as a counter).
func (s *Server) Swept() int64 { return s.swept }

func (s *Server) status(w http.ResponseWriter, r *http.Request, code int, st Status) {
	st.Schema = StatusSchema
	data, _ := json.Marshal(st)
	s.c.Respond(w, r, code, append(data, '\n'), "application/json")
}

// route serves the /v1/xlate resource:
//
//	POST /v1/xlate        submit a codefile + translation knobs; answers a
//	                      Status with the content-addressed key (200 when
//	                      served from the store, 202 when queued/running)
//	GET  /v1/xlate/{key}  the accelerated codefile (200, verified bytes);
//	                      202 Status while queued/running, 422 when that
//	                      translation failed, 404 for an unknown key
func (s *Server) route(w http.ResponseWriter, r *http.Request, rest string) {
	switch {
	case r.Method == http.MethodPost && (rest == "" || rest == "/"):
		s.acceptSubmit(w, r)
	case r.Method == http.MethodGet && strings.HasPrefix(rest, "/"):
		s.serveResult(w, r, rest[1:])
	case r.Method == http.MethodPost:
		s.c.Fail(w, r, http.StatusBadRequest, "path", "POST to /v1/xlate, GET /v1/xlate/{key}")
	default:
		s.c.Fail(w, r, http.StatusMethodNotAllowed, "method", "use POST /v1/xlate or GET /v1/xlate/{key}")
	}
}

// acceptSubmit parses a submission, computes its content-addressed key,
// and answers from the store when possible; otherwise the translation is
// queued on the shared pool and the client polls the key.
func (s *Server) acceptSubmit(w http.ResponseWriter, r *http.Request) {
	// While draining, no new work: in-flight jobs finish and remain
	// fetchable; the typed 503 tells resilient clients to go elsewhere (or
	// retry after the restart).
	body, ok := s.c.ReadBody(w, r, "submission")
	if !ok {
		return
	}
	var req SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.c.Fail(w, r, http.StatusBadRequest, "parse", err.Error())
		return
	}
	if req.Schema != SubmitSchema {
		s.c.Fail(w, r, http.StatusBadRequest, "schema",
			fmt.Sprintf("schema must be %q", SubmitSchema))
		return
	}
	opts, err := req.DecodeOptions()
	if err != nil {
		s.c.Fail(w, r, http.StatusBadRequest, "options", err.Error())
		return
	}
	f, err := codefile.Read(bytes.NewReader(req.Codefile))
	if err != nil {
		s.c.Fail(w, r, http.StatusBadRequest, "codefile", err.Error())
		return
	}
	fp := f.Fingerprint()
	key, err := opts.TransKey(fp)
	if err != nil {
		s.c.Fail(w, r, http.StatusBadRequest, "options", err.Error())
		return
	}
	base := millicode.CodeBase(opts.Space)

	s.jobMu.Lock()
	if j := s.jobs[key]; j != nil {
		// Duplicate submission: answer from the existing job. A finished
		// job means the store holds (or held) the result; re-queue only
		// if the entry has since been evicted or damaged.
		st := *j
		s.jobMu.Unlock()
		switch st.state {
		case StateDone:
			if _, ok := s.cfg.Cache.GetVerified(key, fp, base); ok {
				s.submissions.Add(1)
				s.cachedSubs.Add(1)
				s.status(w, r, http.StatusOK, Status{Key: key, State: StateDone, Cached: true})
				return
			}
			s.jobMu.Lock() // result gone: fall through and re-queue
		case StateFailed:
			s.submissions.Add(1)
			s.status(w, r, http.StatusOK, Status{Key: key, State: StateFailed, Error: st.err})
			return
		default:
			s.submissions.Add(1)
			s.status(w, r, http.StatusAccepted, Status{Key: key, State: st.state})
			return
		}
	}
	// First sight of this key (or a re-queue): a store hit still answers
	// without translating — the daemon may have been restarted with a warm
	// store, or another daemon sharing it may have translated it already.
	if _, ok := s.cfg.Cache.GetVerified(key, fp, base); ok {
		s.jobs[key] = &jobState{state: StateDone, cached: true, base: base}
		s.jobMu.Unlock()
		s.submissions.Add(1)
		s.cachedSubs.Add(1)
		s.status(w, r, http.StatusOK, Status{Key: key, State: StateDone, Cached: true})
		return
	}
	if len(s.jobs) >= maxJobs {
		for k, j := range s.jobs {
			if j.state == StateDone || j.state == StateFailed {
				delete(s.jobs, k)
			}
		}
	}
	j := &jobState{state: StateQueued, base: base}
	s.jobs[key] = j
	s.jobMu.Unlock()
	s.submissions.Add(1)

	s.jobWG.Add(1)
	go s.runJob(key, j, f, opts)
	s.status(w, r, http.StatusAccepted, Status{Key: key, State: StateQueued})
}

// runJob executes one queued translation on the shared pool and records
// the outcome. The store write happens inside Cache.Accelerate; a racing
// identical submission elsewhere writes identical bytes by determinism.
func (s *Server) runJob(key string, j *jobState, f *codefile.File, opts core.Options) {
	defer s.jobWG.Done()
	s.jobMu.Lock()
	j.state = StateRunning
	s.jobMu.Unlock()

	opts.Sched = s.q
	hit, err := s.cfg.Cache.Accelerate(f, opts)

	s.jobMu.Lock()
	defer s.jobMu.Unlock()
	if err != nil {
		j.state = StateFailed
		j.err = err.Error()
		s.failed.Add(1)
		return
	}
	j.state = StateDone
	j.cached = hit
	s.done.Add(1)
}

// serveResult is the GET side: every served byte passes the full verify
// gate (strict parse, AccelSection.Verify at the remembered code base) on
// the way out of the store.
func (s *Server) serveResult(w http.ResponseWriter, r *http.Request, key string) {
	if !validKey(key) {
		s.c.Fail(w, r, http.StatusBadRequest, "key", "key must be 16 lowercase hex digits")
		return
	}
	s.jobMu.Lock()
	j := s.jobs[key]
	var st jobState
	if j != nil {
		st = *j
	}
	s.jobMu.Unlock()

	if j != nil {
		switch st.state {
		case StateQueued, StateRunning:
			s.status(w, r, http.StatusAccepted, Status{Key: key, State: st.state})
			return
		case StateFailed:
			s.status(w, r, http.StatusUnprocessableEntity, Status{Key: key, State: StateFailed, Error: st.err})
			return
		}
	}
	// Done, or a key this daemon never saw submitted (warm store from a
	// previous life or a sibling daemon). The code base is remembered for
	// known jobs; for unknown keys try both bases — Verify at the wrong
	// base fails cleanly and the entry is NOT a hit at that base.
	bases := []uint32{millicode.CodeBase(0), millicode.CodeBase(1)}
	if j != nil {
		bases = []uint32{st.base}
	}
	for _, base := range bases {
		if data, ok := s.cfg.Cache.GetVerified(key, 0, base); ok {
			s.served.Add(1)
			s.c.Respond(w, r, http.StatusOK, data, "application/octet-stream")
			return
		}
	}
	s.c.Fail(w, r, http.StatusNotFound, "absent", "no accelerated codefile under this key")
	return
}

// validKey matches core.Options.TransKey output: 16 lowercase hex digits.
func validKey(key string) bool {
	if len(key) != 16 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
