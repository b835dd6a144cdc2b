// Package svc is the service chassis both tnsr daemons stand on: tnsxlated
// (internal/xlate) and tnsprofd (internal/profsrv). It owns everything a
// request passes through around a server's own logic — the open /healthz
// and /metrics probes, bearer auth, the per-client token buckets, the drain
// flag, the capped body read, and the per-request and typed-reject counters
// with their metric families — plus the SIGTERM drain-then-shutdown loop
// the daemons' main functions run. A server supplies only its routes and
// its own metric families.
package svc

import (
	"bytes"
	"context"
	"crypto/subtle"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tnsr/internal/obs"
)

// Limits is the admission policy the chassis applies to a server's /v1
// routes. The probes stay open: scrapers hold no fleet secrets.
type Limits struct {
	// Token is the bearer token every /v1 request must present. Empty
	// disables auth (tests, trusted networks).
	Token string

	// MaxBody caps an accepted request body in bytes (<= 0 means the
	// server's default). A larger body is refused 413 without being read
	// past the cap.
	MaxBody int64

	// RatePerSec, when > 0, applies a token-bucket rate limit to /v1
	// requests. The bucket is per client — keyed by remote host plus the
	// presented bearer token — so one abusive or runaway fleet machine
	// exhausts only its own budget and cannot starve its neighbours into
	// 429s. RateBurst is each bucket's depth (<= 0 means 1).
	RatePerSec float64
	RateBurst  int
}

// Routes is what a server plugs into the chassis.
type Routes struct {
	// Family names the chassis's own metric families:
	// Family+"_requests_total" and Family+"_rejects_total".
	Family string

	// Prefix is the resource path. Any other path but the probes is
	// refused 404 "path".
	Prefix string

	// Serve handles an authenticated, rate-admitted request; rest is the
	// path after Prefix.
	Serve func(w http.ResponseWriter, r *http.Request, rest string)

	// Metrics writes the server's families after the chassis's. An error
	// (the server's state is unreadable) refuses the scrape with 500
	// "store" and the error as the message.
	Metrics func(p *obs.Prom) error
}

// MaxClients bounds the bucket table so a client cycling spoofed addresses
// cannot grow it without limit (see evictStale).
const MaxClients = 4096

// Chassis is the shared HTTP surface of a tnsr daemon: an http.Handler
// that runs the admission checks and counting around a server's Routes.
type Chassis struct {
	lim      Limits
	routes   Routes
	draining atomic.Bool

	mu       sync.Mutex // guards everything below
	buckets  map[string]*bucket
	requests map[reqKey]int64
	rejects  map[string]int64 // typed reason -> count
}

// bucket is one client's token bucket.
type bucket struct {
	tokens   float64
	lastFill time.Time
}

// reqKey labels one requests_total series.
type reqKey struct {
	method string
	code   int
}

// New builds a chassis around a server's routes.
func New(lim Limits, routes Routes) *Chassis {
	if lim.RateBurst <= 0 {
		lim.RateBurst = 1
	}
	return &Chassis{
		lim:      lim,
		routes:   routes,
		buckets:  map[string]*bucket{},
		requests: map[reqKey]int64{},
		rejects:  map[string]int64{},
	}
}

// ServeHTTP routes:
//
//	GET  /healthz   liveness probe (any method, no auth)
//	GET  /metrics   Prometheus text exposition (no auth)
//	     Prefix...  bearer auth (401 "auth"), then the client's rate
//	                bucket (429 "rate" + Retry-After), then Routes.Serve
//	     else       404 "path"
func (c *Chassis) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case "/healthz":
		c.Respond(w, r, http.StatusOK, []byte("ok\n"), "text/plain; charset=utf-8")
		return
	case "/metrics":
		c.serveMetrics(w, r)
		return
	}
	rest, ok := strings.CutPrefix(r.URL.Path, c.routes.Prefix)
	switch {
	case !ok:
		c.Fail(w, r, http.StatusNotFound, "path", "not found")
	case !c.authed(r):
		c.Fail(w, r, http.StatusUnauthorized, "auth", "missing or wrong bearer token")
	case !c.allow(r):
		w.Header().Set("Retry-After", "1")
		c.Fail(w, r, http.StatusTooManyRequests, "rate", "rate limit exceeded")
	default:
		c.routes.Serve(w, r, rest)
	}
}

// SetDraining flips the drain flag: while draining, write routes are
// refused 503 + Retry-After (see ReadBody) so resilient clients back off to
// another node or a later attempt, while reads keep serving — data already
// held stays available right up to the last request before shutdown.
func (c *Chassis) SetDraining(on bool) { c.draining.Store(on) }

// Draining reports the drain flag.
func (c *Chassis) Draining() bool { return c.draining.Load() }

// ReadBody opens every write route: refuse it while draining (503 +
// Retry-After, reason "draining"), then read the body under MaxBody — 413
// "size" past the cap, 400 "read" on a failed read. what names the body in
// the 413 message. On false the refusal has been written.
func (c *Chassis) ReadBody(w http.ResponseWriter, r *http.Request, what string) ([]byte, bool) {
	if c.Draining() {
		w.Header().Set("Retry-After", "1")
		c.Fail(w, r, http.StatusServiceUnavailable, "draining", "server is draining; retry later")
		return nil, false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, c.lim.MaxBody))
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		c.Fail(w, r, http.StatusRequestEntityTooLarge, "size",
			fmt.Sprintf("%s exceeds %d bytes", what, c.lim.MaxBody))
	case err != nil:
		c.Fail(w, r, http.StatusBadRequest, "read", "body read failed")
	default:
		return body, true
	}
	return nil, false
}

// Fail writes a plain-text refusal and counts it under its typed reason.
func (c *Chassis) Fail(w http.ResponseWriter, r *http.Request, code int, reason, msg string) {
	c.mu.Lock()
	c.rejects[reason]++
	c.requests[reqKey{r.Method, code}]++
	c.mu.Unlock()
	http.Error(w, msg, code)
}

// Respond writes a successful answer and counts it.
func (c *Chassis) Respond(w http.ResponseWriter, r *http.Request, code int, body []byte, contentType string) {
	c.mu.Lock()
	c.requests[reqKey{r.Method, code}]++
	c.mu.Unlock()
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(code)
	w.Write(body)
}

// Clients reports how many client buckets the rate limiter holds.
func (c *Chassis) Clients() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.buckets)
}

// authed checks the bearer token in constant time.
func (c *Chassis) authed(r *http.Request) bool {
	if c.lim.Token == "" {
		return true
	}
	got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return ok && subtle.ConstantTimeCompare([]byte(got), []byte(c.lim.Token)) == 1
}

// clientKey identifies the bucket a request draws from: the remote host
// joined with the bearer token it presented. Either alone is spoofable in
// some deployment (shared NAT vs. shared fleet token); together they
// isolate the common failure mode — one runaway machine hammering the
// daemon — without any per-request allocation beyond the key itself.
func clientKey(r *http.Request) string {
	host := r.RemoteAddr
	if i := strings.LastIndexByte(host, ':'); i >= 0 {
		host = host[:i]
	}
	tok, _ := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	return host + "|" + tok
}

// allow draws one token from the request's client bucket.
func (c *Chassis) allow(r *http.Request) bool {
	if c.lim.RatePerSec <= 0 {
		return true
	}
	key := clientKey(r)
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	b := c.buckets[key]
	if b == nil {
		if len(c.buckets) >= MaxClients {
			c.evictStale(now)
		}
		b = &bucket{tokens: float64(c.lim.RateBurst), lastFill: now}
		c.buckets[key] = b
	}
	b.tokens += now.Sub(b.lastFill).Seconds() * c.lim.RatePerSec
	if max := float64(c.lim.RateBurst); b.tokens > max {
		b.tokens = max
	}
	b.lastFill = now
	if b.tokens < 1 {
		return false
	}
	b.tokens--
	return true
}

// evictStale drops buckets idle long enough to have refilled completely —
// their state is indistinguishable from a fresh bucket, so dropping them
// changes no admission decision. If none qualify (burst of distinct keys
// inside one refill window), the whole table resets; that errs toward
// admitting, never toward starving.
func (c *Chassis) evictStale(now time.Time) {
	full := time.Duration(float64(c.lim.RateBurst) / c.lim.RatePerSec * float64(time.Second))
	dropped := 0
	for k, b := range c.buckets {
		if now.Sub(b.lastFill) >= full {
			delete(c.buckets, k)
			dropped++
		}
	}
	if dropped == 0 {
		c.buckets = map[string]*bucket{}
	}
}

// serveMetrics renders the chassis's families, then the server's, into one
// buffer, so a failing server write refuses the scrape whole.
func (c *Chassis) serveMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		c.Fail(w, r, http.StatusMethodNotAllowed, "method", "use GET")
		return
	}
	var buf bytes.Buffer
	p := obs.NewProm(&buf)
	c.writeMetrics(p)
	if err := c.routes.Metrics(p); err != nil {
		c.Fail(w, r, http.StatusInternalServerError, "store", err.Error())
		return
	}
	c.Respond(w, r, http.StatusOK, buf.Bytes(), "text/plain; version=0.0.4; charset=utf-8")
}

func (c *Chassis) writeMetrics(p *obs.Prom) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p.Family(c.routes.Family+"_requests_total", "counter", "Requests handled, by method and status code.")
	keys := make([]reqKey, 0, len(c.requests))
	for k := range c.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].method != keys[j].method {
			return keys[i].method < keys[j].method
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		p.Sample(c.requests[k], "method", k.method, "code", strconv.Itoa(k.code))
	}
	p.Family(c.routes.Family+"_rejects_total", "counter", "Rejected requests, by typed reason.")
	p.Sorted("reason", c.rejects)
}

// Daemon is a server Run can drain.
type Daemon interface {
	http.Handler
	// Shutdown refuses new writes and returns once the accepted ones are
	// done, or ctx ends.
	Shutdown(ctx context.Context) error
}

// Run serves d on addr until SIGTERM or SIGINT, then drains: d.Shutdown
// refuses new writes and finishes accepted work, then the listener closes
// once in-flight requests finish, both within drainTimeout. name prefixes
// every log line; a listener failure is fatal.
func Run(name, addr string, d Daemon, drainTimeout time.Duration) {
	hs := &http.Server{Addr: addr, Handler: d, ReadHeaderTimeout: 10 * time.Second}
	errc := make(chan error, 1)
	go func() {
		if err := hs.ListenAndServe(); err != http.ErrServerClosed {
			errc <- err
		}
	}()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		log.Fatalf("%s: %v", name, err)
	case s := <-sig:
		log.Printf("%s: %v: draining (timeout %v)", name, s, drainTimeout)
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		log.Printf("%s: drain incomplete: %v", name, err)
	}
	if err := hs.Shutdown(ctx); err != nil {
		log.Printf("%s: listener shutdown: %v", name, err)
	}
	log.Printf("%s: drained", name)
}
