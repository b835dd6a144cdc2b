package profsrv

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tnsr/internal/pgo"
	"tnsr/internal/retry"
	"tnsr/internal/svc"
)

// Default limits; Config zero values fall back to these.
const (
	DefaultMaxBody  = 4 << 20 // canonical profiles are tens of KB; 4 MiB is generous
	DefaultAgeFloor = 1
)

// profilesPrefix is the resource path: POST uploads one runner's capture,
// GET serves the current aggregate.
const profilesPrefix = "/v1/profiles/"

// Config parameterizes a Server.
type Config struct {
	// Store holds the aggregates. Required.
	Store *Store

	// Limits is the /v1 admission policy the service chassis enforces:
	// bearer token, upload size cap (<= 0 means DefaultMaxBody; it also
	// bounds a peer's answer) and per-client rate limit.
	svc.Limits

	// AgeEvery applies cross-run aging whenever a merged aggregate's run
	// count reaches this value: the aggregate is replaced by
	// pgo.Age(aggregate, AgeFloor), which also halves Runs, so the decay
	// self-clocks. 0 disables aging (the aggregate is then exactly the
	// order-independent merge of every upload — the differential harness
	// runs in this mode).
	AgeEvery int64

	// AgeFloor is the count below which an aged row is dropped
	// (<= 0 means DefaultAgeFloor).
	AgeFloor int64

	// Peers lists sibling tnsprofd base URLs. A GET then serves the merge
	// of the local aggregate with every peer's LOCAL aggregate (peers are
	// asked with ?local=1, so two nodes naming each other cannot recurse).
	// pgo.Merge is order-independent and canonical, so N nodes each
	// holding a subset of the fleet's captures serve one byte-identical
	// fleet-wide aggregate regardless of which node a capture landed on
	// or which node is asked. A peer that cannot be reached within
	// PeerTimeout degrades to "its captures are missing from this
	// answer": the response is still served, the failure is counted per
	// peer in /metrics, and a stale or partial aggregate costs interludes
	// downstream, never correctness — the same advisory contract every
	// profile consumer already honors.
	Peers []string

	// PeerTimeout bounds each peer fetch (<= 0 means DefaultPeerTimeout).
	PeerTimeout time.Duration

	// PeerToken is the bearer token presented to peers (they typically
	// share the fleet's token; empty sends none).
	PeerToken string

	// PeerBreakAfter is the consecutive-failure count that opens a peer's
	// circuit breaker: further GETs fast-fail that peer out of the merge
	// without paying PeerTimeout, until a cooldown probe finds it healthy
	// again (<= 0 means retry.DefaultBreakAfter). A dead peer then costs
	// one timeout per cooldown instead of one per request.
	PeerBreakAfter int

	// PeerBreakCooldown is how long an open peer breaker waits before
	// admitting a probe (<= 0 means retry.DefaultCooldown).
	PeerBreakCooldown time.Duration
}

// DefaultPeerTimeout bounds a peer aggregate fetch.
const DefaultPeerTimeout = 2 * time.Second

// Server is the tnsprofd HTTP surface: the service chassis around the
// profile routes. It is an http.Handler, so the fuzz target can drive the
// entire request path without a socket.
type Server struct {
	cfg Config
	c   *svc.Chassis

	peerHTTP  *http.Client // peer fetches, bounded by PeerTimeout
	breakerMu sync.Mutex
	breakers  map[string]*retry.Breaker // peer URL -> circuit breaker, lazily built

	// Counters for /metrics (see metrics.go).
	uploads    atomic.Int64 // accepted merges
	served     atomic.Int64 // aggregates served
	ages       atomic.Int64 // aging events applied
	peerMerges atomic.Int64 // multi-node merges served

	peerMu        sync.Mutex
	peerErrs      map[string]int64 // peer URL -> degraded fetches
	peerFastFails map[string]int64 // peer URL -> merges skipped by an open breaker
}

// New builds a Server. The store is required.
func New(cfg Config) *Server {
	if cfg.Store == nil {
		panic("profsrv: New: Config.Store is required")
	}
	if cfg.MaxBody <= 0 {
		cfg.MaxBody = DefaultMaxBody
	}
	if cfg.AgeFloor <= 0 {
		cfg.AgeFloor = DefaultAgeFloor
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = DefaultPeerTimeout
	}
	s := &Server{
		cfg:           cfg,
		peerHTTP:      &http.Client{Timeout: cfg.PeerTimeout},
		breakers:      map[string]*retry.Breaker{},
		peerErrs:      map[string]int64{},
		peerFastFails: map[string]int64{},
	}
	s.c = svc.New(cfg.Limits, svc.Routes{Family: "tnsr_profsrv",
		Prefix: profilesPrefix, Serve: s.route, Metrics: s.writeMetrics})
	return s
}

// breakerFor returns (building on first use) the breaker guarding a peer.
func (s *Server) breakerFor(peer string) *retry.Breaker {
	s.breakerMu.Lock()
	defer s.breakerMu.Unlock()
	b := s.breakers[peer]
	if b == nil {
		b = retry.NewBreaker(s.cfg.PeerBreakAfter, s.cfg.PeerBreakCooldown)
		s.breakers[peer] = b
	}
	return b
}

// ServeHTTP is the chassis's handler: the open probes, then the admission
// checks, then route.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.c.ServeHTTP(w, r) }

// SetDraining flips drain mode: new uploads are refused 503 (with a
// Retry-After so resilient clients back off to another node or a later
// attempt) while reads keep being served — profile data already held must
// stay available right up to the last request before shutdown.
func (s *Server) SetDraining(on bool) { s.c.SetDraining(on) }

// Draining reports whether the server is refusing new uploads.
func (s *Server) Draining() bool { return s.c.Draining() }

// Shutdown refuses new uploads. Every accepted upload is durably merged
// before its 200 goes out, so there is nothing further to wait for.
func (s *Server) Shutdown(context.Context) error {
	s.SetDraining(true)
	return nil
}

// route serves the /v1/profiles/{fingerprint} resource:
//
//	POST  upload one capture; responds with the merged (and possibly
//	      aged) aggregate
//	GET   current aggregate, 404 when absent
func (s *Server) route(w http.ResponseWriter, r *http.Request, fp string) {
	if !ValidFingerprint(fp) {
		s.c.Fail(w, r, http.StatusBadRequest, "fingerprint",
			"fingerprint must be 16 lowercase hex digits")
		return
	}
	switch r.Method {
	case http.MethodGet:
		s.serveAggregate(w, r, fp)
	case http.MethodPost:
		s.acceptUpload(w, r, fp)
	default:
		s.c.Fail(w, r, http.StatusMethodNotAllowed, "method", "use GET or POST")
	}
}

// serveAggregate is the GET side: the stored bytes are already canonical,
// but they are re-parsed and re-validated on every load — a damaged file
// must become a typed 500, never served advice. With peers configured (and
// the request not marked ?local=1), the response is the order-independent
// pgo.Merge of the local aggregate with every reachable peer's local
// aggregate — the multi-node fleet view.
func (s *Server) serveAggregate(w http.ResponseWriter, r *http.Request, fp string) {
	p, err := s.cfg.Store.Load(fp)
	if err != nil {
		s.c.Fail(w, r, http.StatusInternalServerError, "store",
			"aggregate unreadable; refusing to serve it")
		return
	}
	localOnly := r.URL.Query().Get("local") != ""
	if !localOnly && len(s.cfg.Peers) > 0 {
		merged, err := s.mergePeers(fp, p)
		if err != nil {
			s.c.Fail(w, r, http.StatusInternalServerError, "peer-merge", err.Error())
			return
		}
		p = merged
	}
	if p == nil {
		s.c.Fail(w, r, http.StatusNotFound, "absent", "no aggregate for this fingerprint")
		return
	}
	data, err := p.JSON()
	if err != nil {
		s.c.Fail(w, r, http.StatusInternalServerError, "store", "aggregate failed validation")
		return
	}
	s.served.Add(1)
	s.c.Respond(w, r, http.StatusOK, data, "application/json")
}

// mergePeers fetches every peer's local aggregate for fp concurrently and
// merges the reachable ones with the local aggregate (nil when this node
// holds none). A peer failure — unreachable, slow past PeerTimeout, or a
// damaged response the strict parser refuses — degrades that peer out of
// the answer and counts in /metrics; it never fails the request. Each peer
// sits behind a circuit breaker, so a peer that keeps failing is dropped
// from the merge without paying its timeout until a cooldown probe clears
// it. Merge itself failing (cross-build fingerprints) is a hard error:
// refusing to serve beats serving a mixed-build aggregate.
func (s *Server) mergePeers(fp string, local *pgo.Profile) (*pgo.Profile, error) {
	parts := make([]*pgo.Profile, len(s.cfg.Peers))
	var wg sync.WaitGroup
	for i, peer := range s.cfg.Peers {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			br := s.breakerFor(peer)
			if !br.Allow() {
				s.countPeer(s.peerFastFails, peer)
				return
			}
			p, err := s.fetchPeer(peer, fp)
			br.Report(err)
			if err != nil {
				s.countPeer(s.peerErrs, peer)
				return
			}
			parts[i] = p // nil when the peer has no aggregate: skipped by Merge
		}(i, peer)
	}
	wg.Wait()
	any := local != nil
	for _, p := range parts {
		any = any || p != nil
	}
	if !any {
		return nil, nil
	}
	merged, err := pgo.Merge(append([]*pgo.Profile{local}, parts...)...)
	if err != nil {
		return nil, fmt.Errorf("peer aggregates refuse to merge: %v", err)
	}
	s.peerMerges.Add(1)
	return merged, nil
}

// fetchPeer GETs one peer's LOCAL aggregate ((nil, nil) when it has none).
func (s *Server) fetchPeer(peer, fp string) (*pgo.Profile, error) {
	url := strings.TrimSuffix(peer, "/") + profilesPrefix + fp + "?local=1"
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if s.cfg.PeerToken != "" {
		req.Header.Set("Authorization", "Bearer "+s.cfg.PeerToken)
	}
	resp, err := s.peerHTTP.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s: %s", peer, resp.Status)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, s.cfg.MaxBody))
	if err != nil {
		return nil, err
	}
	return pgo.ParseProfile(data)
}

// acceptUpload is the POST side: parse strictly, pin the upload to the
// fingerprint in the path, merge under the fingerprint's lock, age when
// the run count says so, persist atomically, and answer with the new
// aggregate so the uploader can retranslate against it immediately.
func (s *Server) acceptUpload(w http.ResponseWriter, r *http.Request, fp string) {
	data, ok := s.c.ReadBody(w, r, "profile")
	if !ok {
		return
	}

	up, err := pgo.ParseProfile(data)
	if err != nil {
		s.c.Fail(w, r, http.StatusBadRequest, "parse", err.Error())
		return
	}
	// The store key is the user-space fingerprint: an upload must carry
	// one, and it must match the path. A mismatch is the stale-profile
	// case — the server refuses it so an aggregate can never mix builds
	// (pgo.Merge would refuse the cross-build merge anyway; rejecting here
	// types the error for the runner).
	usp := up.Space("user")
	if usp == nil || usp.Fingerprint == "" {
		s.c.Fail(w, r, http.StatusBadRequest, "no-fingerprint",
			"profile has no user-space fingerprint")
		return
	}
	if usp.Fingerprint != fp {
		s.c.Fail(w, r, http.StatusConflict, "stale-fingerprint",
			fmt.Sprintf("profile fingerprint %s does not match path %s", usp.Fingerprint, fp))
		return
	}

	aged := false
	merged, err := s.cfg.Store.Update(fp, func(cur *pgo.Profile) (*pgo.Profile, error) {
		next, err := pgo.Merge(cur, up) // Merge skips a nil cur
		if err != nil {
			return nil, err
		}
		if s.cfg.AgeEvery > 0 && next.Runs >= s.cfg.AgeEvery {
			next = pgo.Age(next, s.cfg.AgeFloor)
			aged = true
		}
		return next, nil
	})
	if err != nil {
		// Merge refusal (cross-build aggregate, should be unreachable past
		// the fingerprint gate) or a store failure.
		s.c.Fail(w, r, http.StatusInternalServerError, "merge", err.Error())
		return
	}
	data, err = merged.JSON()
	if err != nil {
		s.c.Fail(w, r, http.StatusInternalServerError, "merge", "merged aggregate failed validation")
		return
	}
	s.uploads.Add(1)
	if aged {
		s.ages.Add(1)
	}
	s.c.Respond(w, r, http.StatusOK, data, "application/json")
}
