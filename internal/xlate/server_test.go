package xlate

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/store"
	"tnsr/internal/tcache"
	"tnsr/internal/tnsasm"
	"tnsr/internal/tnsgen"
)

// buildFile assembles one generated user program; distinct seeds give
// distinct codefiles (and distinct TransKeys).
func buildFile(t testing.TB, seed int64) *codefile.File {
	t.Helper()
	p := tnsgen.Generate(fmt.Sprintf("xl%d", seed), seed, tnsgen.LegacyConfig())
	f, err := tnsasm.Assemble(p.Name, p.UserSource())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func newServer(t testing.TB, mutate func(*Config)) *Server {
	t.Helper()
	c, err := tcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cache: c, Workers: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// localBytes is the reference: a local translation of the same codefile
// under the same options, serialized.
func localBytes(t testing.TB, seed int64, opts core.Options) []byte {
	t.Helper()
	f := buildFile(t, seed)
	if err := core.Accelerate(f, opts); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRemoteByteIdentical is the tentpole acceptance pin: two codefiles
// submitted CONCURRENTLY to one daemon — their fragments interleaving on
// the shared work-stealing queue — each come back byte-identical to a
// local axcel-style translation with the same (codefile, options) key.
// Run under -race in CI.
func TestRemoteByteIdentical(t *testing.T) {
	s := newServer(t, nil)
	srv := httptest.NewServer(s)
	defer srv.Close()

	seeds := []int64{3, 7, 11}
	opts := core.Options{Level: codefile.LevelDefault}

	var wg sync.WaitGroup
	got := make([][]byte, len(seeds))
	errs := make([]error, len(seeds))
	for i, seed := range seeds {
		wg.Add(1)
		go func(i int, seed int64) {
			defer wg.Done()
			cl := NewClient(srv.URL, "")
			f := buildFile(t, seed)
			if err := cl.Accelerate(f, opts); err != nil {
				errs[i] = err
				return
			}
			var buf bytes.Buffer
			if _, err := f.WriteTo(&buf); err != nil {
				errs[i] = err
				return
			}
			got[i] = buf.Bytes()
		}(i, seed)
	}
	wg.Wait()
	for i, seed := range seeds {
		if errs[i] != nil {
			t.Fatalf("seed %d: %v", seed, errs[i])
		}
		want := localBytes(t, seed, opts)
		if !bytes.Equal(got[i], want) {
			t.Errorf("seed %d: remote translation differs from local (remote %d bytes, local %d)",
				seed, len(got[i]), len(want))
		}
	}

	// The fragments really did go through the shared queue.
	if st := s.Queue().Stats(); st.Executed == 0 {
		t.Errorf("queue executed no fragments: %+v", st)
	}
}

// TestSubmitCachedSecondTime: an identical resubmission answers from the
// store without translating, and the served bytes stay identical.
func TestSubmitCachedSecondTime(t *testing.T) {
	s := newServer(t, nil)
	srv := httptest.NewServer(s)
	defer srv.Close()

	opts := core.Options{Level: codefile.LevelDefault}
	cl := NewClient(srv.URL, "")

	f1 := buildFile(t, 5)
	if err := cl.Accelerate(f1, opts); err != nil {
		t.Fatal(err)
	}
	cold := s.Queue().Stats().Executed
	if cold == 0 {
		t.Fatal("the first submission executed no fragment jobs")
	}
	st, err := cl.Submit(buildFile(t, 5), opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || !st.Cached {
		t.Fatalf("resubmission: state=%s cached=%v, want done/cached", st.State, st.Cached)
	}
	f2 := buildFile(t, 5)
	if err := cl.Accelerate(f2, opts); err != nil {
		t.Fatal(err)
	}
	// Answered from the store: the queue translated nothing more.
	if n := s.Queue().Stats().Executed; n != cold {
		t.Errorf("cached resubmission executed %d fragment jobs", n-cold)
	}
	b1 := mustBytes(t, f1)
	b2 := mustBytes(t, f2)
	if !bytes.Equal(b1, b2) {
		t.Error("cached submission served different bytes")
	}
}

func mustBytes(t testing.TB, f *codefile.File) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// do drives the handler directly, profsrv-test style.
func do(s *Server, method, path, token string, body []byte) *httptest.ResponseRecorder {
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, path, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	if token != "" {
		r.Header.Set("Authorization", "Bearer "+token)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// TestTypedRejections pins the adversarial surface: every hostile input
// gets the right status code and a typed reject counter in /metrics,
// matching profsrv conventions.
func TestTypedRejections(t *testing.T) {
	s := newServer(t, func(c *Config) {
		c.Token = "s3cret"
		c.MaxBody = 512
	})

	submit := func(body []byte, token string) *httptest.ResponseRecorder {
		return do(s, http.MethodPost, "/v1/xlate", token, body)
	}

	if w := submit([]byte("{}"), ""); w.Code != http.StatusUnauthorized {
		t.Errorf("no token: %d, want 401", w.Code)
	}
	if w := submit([]byte("{}"), "wrong"); w.Code != http.StatusUnauthorized {
		t.Errorf("wrong token: %d, want 401", w.Code)
	}
	if w := submit(bytes.Repeat([]byte("x"), 600), "s3cret"); w.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize: %d, want 413", w.Code)
	}
	if w := submit([]byte("not json"), "s3cret"); w.Code != http.StatusBadRequest {
		t.Errorf("bad json: %d, want 400", w.Code)
	}
	if w := submit([]byte(`{"schema":"wrong/v9"}`), "s3cret"); w.Code != http.StatusBadRequest {
		t.Errorf("bad schema: %d, want 400", w.Code)
	}
	body, _ := json.Marshal(SubmitRequest{Schema: SubmitSchema, Level: "warp"})
	if w := submit(body, "s3cret"); w.Code != http.StatusBadRequest {
		t.Errorf("bad level: %d, want 400", w.Code)
	}
	body, _ = json.Marshal(SubmitRequest{Schema: SubmitSchema, Space: 2})
	if w := submit(body, "s3cret"); w.Code != http.StatusBadRequest {
		t.Errorf("space 2: %d, want 400", w.Code)
	}
	body, _ = json.Marshal(SubmitRequest{Schema: SubmitSchema, Codefile: []byte("junk")})
	if w := submit(body, "s3cret"); w.Code != http.StatusBadRequest {
		t.Errorf("bad codefile: %d, want 400", w.Code)
	}
	if w := do(s, http.MethodGet, "/v1/xlate/NOT-A-KEY", "s3cret", nil); w.Code != http.StatusBadRequest {
		t.Errorf("bad key: %d, want 400", w.Code)
	}
	if w := do(s, http.MethodGet, "/v1/xlate/0123456789abcdef", "s3cret", nil); w.Code != http.StatusNotFound {
		t.Errorf("unknown key: %d, want 404", w.Code)
	}
	if w := do(s, http.MethodDelete, "/v1/xlate/0123456789abcdef", "s3cret", nil); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("DELETE: %d, want 405", w.Code)
	}

	m := do(s, http.MethodGet, "/metrics", "", nil)
	if m.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", m.Code)
	}
	for _, reason := range []string{"auth", "size", "parse", "schema", "options", "codefile", "key", "absent", "method"} {
		if !strings.Contains(m.Body.String(), fmt.Sprintf("tnsr_xlated_rejects_total{reason=%q}", reason)) {
			t.Errorf("/metrics missing reject reason %q", reason)
		}
	}
}

// TestRateLimit: a burst past the bucket answers 429 with the typed
// reason.
func TestRateLimit(t *testing.T) {
	s := newServer(t, func(c *Config) {
		c.RatePerSec = 0.001
		c.RateBurst = 2
	})
	codes := map[int]int{}
	for i := 0; i < 5; i++ {
		w := do(s, http.MethodGet, "/v1/xlate/0123456789abcdef", "", nil)
		codes[w.Code]++
	}
	if codes[http.StatusTooManyRequests] != 3 {
		t.Errorf("429s = %d, want 3 (burst 2 of 5): %v", codes[http.StatusTooManyRequests], codes)
	}
}

// TestHealthAndMetricsOpen: probes work without auth even when /v1 is
// token-protected.
func TestHealthAndMetricsOpen(t *testing.T) {
	s := newServer(t, func(c *Config) { c.Token = "s3cret" })
	if w := do(s, http.MethodGet, "/healthz", "", nil); w.Code != http.StatusOK {
		t.Errorf("/healthz: %d", w.Code)
	}
	if w := do(s, http.MethodGet, "/metrics", "", nil); w.Code != http.StatusOK {
		t.Errorf("/metrics: %d", w.Code)
	}
}

// TestServedBytesVerifyGated: damaging the store entry under a key makes
// the GET miss (404) instead of serving the damaged bytes, and counts a
// store reject.
func TestServedBytesVerifyGated(t *testing.T) {
	backing, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := tcache.New(backing)
	s := New(Config{Cache: c, Workers: 2})
	t.Cleanup(s.Close)
	srv := httptest.NewServer(s)
	defer srv.Close()

	opts := core.Options{Level: codefile.LevelDefault}
	cl := NewClient(srv.URL, "")
	f := buildFile(t, 9)
	st, err := cl.Submit(f, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Accelerate(f, opts); err != nil {
		t.Fatal(err)
	}

	// Damage the stored entry through the cache's own store surface.
	data, ok := c.GetVerified(st.Key, 0, 0x010000)
	if !ok {
		t.Fatal("entry missing before damage")
	}
	bad := append([]byte(nil), data...)
	bad[len(bad)/3] ^= 0x40
	if err := backing.Put(st.Key+".tns", bad); err != nil {
		t.Fatal(err)
	}

	w := do(s, http.MethodGet, "/v1/xlate/"+st.Key, "", nil)
	if w.Code != http.StatusNotFound {
		t.Errorf("damaged entry served: %d, want 404", w.Code)
	}
	if got := c.Stats().Rejects; got == 0 {
		t.Error("damaged entry not counted as a store reject")
	}
}

// TestColdGetServesLibraryTranslation: a daemon with no job for a key — a
// sibling sharing the store translated it, or the daemon restarted —
// serves a library translation found there. The entry fails Verify at the
// user base by design; that is no damage, so it is neither rejected nor
// deleted. An entry damaged so it verifies at neither base still is.
func TestColdGetServesLibraryTranslation(t *testing.T) {
	backing, err := store.OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c := tcache.New(backing)
	f := buildFile(t, 5)
	opts := core.Options{Level: codefile.LevelDefault, Space: 1}
	key, err := opts.TransKey(f.Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Accelerate(f, opts); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if _, err := f.WriteTo(&want); err != nil {
		t.Fatal(err)
	}

	s := New(Config{Cache: c, Workers: 2})
	t.Cleanup(s.Close)
	w := do(s, http.MethodGet, "/v1/xlate/"+key, "", nil)
	if w.Code != http.StatusOK || !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
		t.Fatalf("cold GET of a library translation: %d (%d bytes), want 200 with the stored %d bytes",
			w.Code, w.Body.Len(), want.Len())
	}
	if got := c.Stats().Rejects; got != 0 {
		t.Errorf("rejects = %d after a valid cold GET, want 0", got)
	}
	if _, n := c.SizeBytes(); n != 1 {
		t.Errorf("%d entries left after a valid cold GET, want 1", n)
	}

	bad := append([]byte(nil), want.Bytes()...)
	bad[len(bad)/3] ^= 0x40
	if err := backing.Put(key+".tns", bad); err != nil {
		t.Fatal(err)
	}
	if w := do(s, http.MethodGet, "/v1/xlate/"+key, "", nil); w.Code != http.StatusNotFound {
		t.Errorf("damaged entry: %d, want 404", w.Code)
	}
	if got := c.Stats().Rejects; got != 1 {
		t.Errorf("rejects = %d after a damaged cold GET, want 1", got)
	}
}
