package xlate

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/faultsim"
	"tnsr/internal/retry"
	"tnsr/internal/store"
	"tnsr/internal/tcache"
)

// lossyStore fails its first `fail` Puts the way a crash mid-write does:
// torn ".tmp-" debris lands in dir, the entry is never installed, and the
// writer gets an error. Everything else forwards.
type lossyStore struct {
	store.Storage
	dir string

	mu   sync.Mutex
	fail int
	torn int
}

func (l *lossyStore) Put(key string, data []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.fail != 0 {
		if l.fail > 0 {
			l.fail--
		}
		l.torn++
		os.WriteFile(filepath.Join(l.dir, fmt.Sprintf(".tmp-crash%d", l.torn)), data[:len(data)/2], 0o666)
		return errors.New("store: crashed mid-write")
	}
	return l.Storage.Put(key, data)
}

// pollUntil404 polls key until the server answers 404 (the job finished
// but its result never became durable), failing on anything else terminal.
func pollUntil404(t *testing.T, cl *Client, key string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		cf, _, err := cl.Fetch(key)
		switch {
		case cf != nil:
			t.Fatal("lost translation served anyway")
		case err == nil:
			// still queued/running
		case isNotFound(err):
			return
		default:
			t.Fatalf("unexpected fetch state: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never reached the lost-result state")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestKillMidTranslationRestartRecovery is the crash-safety acceptance
// pin: a daemon whose store dies mid-write (every Put tears, as a kill -9
// mid-rename would) loses the submission's result; the restarted daemon
// sweeps the torn temporaries on startup, the client re-submits, and the
// served bytes are byte-identical to an uninterrupted local translation.
func TestKillMidTranslationRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	opts := core.Options{Level: codefile.LevelDefault}
	const seed = 21

	inner1, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	dying := &lossyStore{Storage: inner1, dir: dir, fail: -1} // every Put tears
	s1 := New(Config{Cache: tcache.New(dying), Workers: 2})

	// The proxy holds the daemon's address fixed across the "restart".
	var cur atomic.Pointer[Server]
	cur.Store(s1)
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		cur.Load().ServeHTTP(w, r)
	}))
	defer proxy.Close()

	cl := NewClient(proxy.URL, "")
	cl.PollInterval = 2 * time.Millisecond
	cl.Retry = retry.Policy{MaxAttempts: 3, BaseDelay: time.Millisecond, Seed: 1}

	st, err := cl.Submit(buildFile(t, seed), opts)
	if err != nil {
		t.Fatal(err)
	}
	pollUntil404(t, cl, st.Key)

	// The kill left debris behind.
	debris := 0
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			debris++
		}
	}
	if debris == 0 {
		t.Fatal("crashed writes left no debris")
	}

	// Restart: a fresh daemon over the same directory. New() sweeps.
	s1.Close()
	inner2, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := New(Config{Cache: tcache.New(inner2), Workers: 2})
	defer s2.Close()
	cur.Store(s2)

	ents, err = os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("restart did not sweep %q", e.Name())
		}
	}

	// The client's replay against the restarted daemon serves bytes
	// identical to an uninterrupted local translation.
	f := buildFile(t, seed)
	if err := cl.AccelerateContext(context.Background(), f, opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), localBytes(t, seed, opts)) {
		t.Error("post-restart serve not byte-identical to local translation")
	}

	// And the restarted daemon's metrics admit what happened.
	resp, err := http.Get(proxy.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	mb.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(mb.String(), fmt.Sprintf("tnsr_xlated_swept_total %d", debris)) {
		t.Errorf("swept counter missing or wrong:\n%s", mb.String())
	}
}

// TestClientResubmitsLostResult: within ONE Accelerate call — the daemon
// completes the translation but the result never becomes durable (torn
// write), the poll hits 404, and the client re-submits; the key dedup
// re-queues, the second write lands, and the result is byte-identical.
func TestClientResubmitsLostResult(t *testing.T) {
	dir := t.TempDir()
	inner, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	lossy := &lossyStore{Storage: inner, dir: dir, fail: 1} // first Put tears
	s := New(Config{Cache: tcache.New(lossy), Workers: 2})
	defer s.Close()
	srv := httptest.NewServer(s)
	defer srv.Close()

	const seed = 23
	opts := core.Options{Level: codefile.LevelDefault}
	cl := NewClient(srv.URL, "")
	cl.PollInterval = 2 * time.Millisecond
	cl.Deadline = 30 * time.Second

	f := buildFile(t, seed)
	if err := cl.Accelerate(f, opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), localBytes(t, seed, opts)) {
		t.Error("recovered translation not byte-identical to local")
	}

	subs := s.submissions.Load()
	if subs < 2 {
		t.Errorf("submissions %d, want >= 2 (the re-submission)", subs)
	}
}

// TestDrainRefusesNewServesInFlight: a draining server 503s new
// submissions (with Retry-After) but completed results stay fetchable, and
// Shutdown returns once in-flight work is done.
func TestDrainRefusesNewServesInFlight(t *testing.T) {
	s := newServer(t, nil)
	srv := httptest.NewServer(s)
	defer srv.Close()

	opts := core.Options{Level: codefile.LevelDefault}
	cl := NewClient(srv.URL, "")
	cl.PollInterval = 2 * time.Millisecond

	// One translation in before the drain.
	const seed = 27
	f := buildFile(t, seed)
	if err := cl.Accelerate(f, opts); err != nil {
		t.Fatal(err)
	}
	st, err := cl.Submit(buildFile(t, seed), opts)
	if err != nil {
		t.Fatal(err)
	}

	s.SetDraining(true)

	// New submissions are refused, typed, with a Retry-After.
	fast := NewClient(srv.URL, "")
	fast.Retry = retry.Policy{MaxAttempts: 1}
	_, err = fast.Submit(buildFile(t, 99), opts)
	var he *retry.HTTPError
	if !errors.As(err, &he) || he.Status != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: %v", err)
	}
	if he.RetryAfter <= 0 {
		t.Error("draining 503 carried no Retry-After")
	}

	// The finished result still serves, byte-identical.
	cf, data, err := cl.Fetch(st.Key)
	if err != nil || cf == nil {
		t.Fatalf("fetch while draining: %v", err)
	}
	if !bytes.Equal(data, localBytes(t, seed, opts)) {
		t.Error("drained serve not byte-identical")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Metrics carry the drain state and the typed reject.
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var mb bytes.Buffer
	mb.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"tnsr_xlated_draining 1",
		`tnsr_xlated_rejects_total{reason="draining"} 1`,
	} {
		if !strings.Contains(mb.String(), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestShutdownWaitsForInFlight: a submission accepted before Shutdown has
// a durable, fetchable result after Shutdown returns.
func TestShutdownWaitsForInFlight(t *testing.T) {
	s := newServer(t, nil)
	srv := httptest.NewServer(s)
	defer srv.Close()

	opts := core.Options{Level: codefile.LevelDefault}
	cl := NewClient(srv.URL, "")
	const seed = 31
	st, err := cl.Submit(buildFile(t, seed), opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	cf, data, err := cl.Fetch(st.Key)
	if err != nil || cf == nil {
		t.Fatalf("fetch after shutdown: cf %v, err %v", cf, err)
	}
	if !bytes.Equal(data, localBytes(t, seed, opts)) {
		t.Error("post-shutdown serve not byte-identical to local")
	}
}

// TestClientSurvivesFlakyTransport: a client whose every request rides a
// fault-injecting transport (resets, 5xx, truncated and corrupted bodies)
// still converges to a byte-identical result — the backoff inside Deadline
// absorbs the chaos and the verify gates refuse damaged bytes.
func TestClientSurvivesFlakyTransport(t *testing.T) {
	s := newServer(t, nil)
	srv := httptest.NewServer(s)
	defer srv.Close()

	const seed = 37
	opts := core.Options{Level: codefile.LevelDefault}

	cl := NewClient(srv.URL, "")
	cl.PollInterval = 2 * time.Millisecond
	cl.Deadline = 30 * time.Second
	cl.Retry = retry.Policy{MaxAttempts: 6, BaseDelay: time.Millisecond, Seed: 7}
	cl.HTTPClient = &http.Client{Transport: faultsim.WrapTransport(http.DefaultTransport, faultsim.TransportOpts{
		Seed:      7,
		PReset:    0.15,
		P5xx:      0.15,
		PTruncate: 0.1,
		PCorrupt:  0.1,
	})}

	f := buildFile(t, seed)
	if err := cl.Accelerate(f, opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), localBytes(t, seed, opts)) {
		t.Error("translation under flaky transport not byte-identical to local")
	}
}

// TestPollBackoffGrows: each not-ready poll widens the interval up to
// PollMax, so a slow translation is not hammered at the initial rate.
func TestPollBackoffGrows(t *testing.T) {
	var mu sync.Mutex
	var polls []time.Time
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprintf(w, `{"schema":%q,"key":"00000000000000aa","state":"queued"}`, StatusSchema)
			return
		}
		mu.Lock()
		polls = append(polls, time.Now())
		mu.Unlock()
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprintf(w, `{"schema":%q,"key":"00000000000000aa","state":"running"}`, StatusSchema)
	})
	srv := httptest.NewServer(h)
	defer srv.Close()

	cl := NewClient(srv.URL, "")
	cl.PollInterval = time.Millisecond
	cl.PollMax = 40 * time.Millisecond
	cl.Deadline = 250 * time.Millisecond

	err := cl.Accelerate(buildFile(t, 41), core.Options{Level: codefile.LevelDefault})
	if err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want deadline error, got %v", err)
	}
	mu.Lock()
	n := len(polls)
	mu.Unlock()
	// Fixed 1ms polling would take ~250 polls; backoff to 40ms caps the
	// count near 250/40 + the short ramp. Allow generous slack.
	if n == 0 || n > 40 {
		t.Errorf("poll count %d, want backoff-limited (1..40)", n)
	}
}
