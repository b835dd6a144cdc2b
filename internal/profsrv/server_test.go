package profsrv

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"tnsr/internal/pgo"
	"tnsr/internal/svc"
)

const testFP = "00000000deadbeef"

// testProfile builds a valid capture pinned to fp, with counts scaled so
// distinct uploads are distinguishable in the merge.
func testProfile(fp string, scale int64) *pgo.Profile {
	return &pgo.Profile{
		Schema: pgo.Schema,
		Runs:   1,
		Spaces: []pgo.SpaceProfile{{
			Space:       "user",
			Fingerprint: fp,
			CallSites: []pgo.CallSite{{
				Addr:    10,
				Results: []pgo.ResultCount{{Words: 2, Count: 3 * scale}},
			}},
			RPSites: []pgo.RPSite{{
				Addr: 20,
				RPs:  []pgo.RPCount{{RP: 5, Count: 7 * scale}},
			}},
			Procs: []pgo.ProcWeight{{Name: "work", Calls: scale, InterpInstrs: 11 * scale}},
		}},
	}
}

func mustJSON(t testing.TB, p *pgo.Profile) []byte {
	t.Helper()
	data, err := p.JSON()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func newTestServer(t testing.TB, mutate func(*Config)) *Server {
	t.Helper()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Store: store}
	if mutate != nil {
		mutate(&cfg)
	}
	return New(cfg)
}

// do drives the handler directly — no socket, same code path the daemon
// serves.
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

func TestAuthEnforced(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Token = "s3cret" })
	path := profilesPrefix + testFP
	up := mustJSON(t, testProfile(testFP, 1))

	for _, tc := range []struct {
		name, method, token string
		body                []byte
		want                int
	}{
		{"get-no-token", http.MethodGet, "", nil, http.StatusUnauthorized},
		{"get-wrong-token", http.MethodGet, "wrong", nil, http.StatusUnauthorized},
		{"post-no-token", http.MethodPost, "", up, http.StatusUnauthorized},
		{"post-almost-token", http.MethodPost, "s3cret ", up, http.StatusUnauthorized},
		{"post-right-token", http.MethodPost, "s3cret", up, http.StatusOK},
		{"get-right-token", http.MethodGet, "s3cret", nil, http.StatusOK},
	} {
		if w := do(s, tc.method, path, tc.token, tc.body); w.Code != tc.want {
			t.Errorf("%s: code %d, want %d (%s)", tc.name, w.Code, tc.want, w.Body.String())
		}
	}

	// Health and metrics stay open: probes and scrapers hold no secrets.
	if w := do(s, http.MethodGet, "/healthz", "", nil); w.Code != http.StatusOK {
		t.Errorf("/healthz behind auth: %d", w.Code)
	}
	if w := do(s, http.MethodGet, "/metrics", "", nil); w.Code != http.StatusOK {
		t.Errorf("/metrics behind auth: %d", w.Code)
	}
}

func TestUploadRejections(t *testing.T) {
	valid := mustJSON(t, testProfile(testFP, 1))
	// Cap the body just above the valid profile; the same profile with
	// trillion-scale counts overflows the cap while staying well-formed,
	// exercising the 413 path in isolation from the parser.
	s := newTestServer(t, func(c *Config) { c.MaxBody = int64(len(valid)) + 16 })
	path := profilesPrefix + testFP
	oversize := mustJSON(t, testProfile(testFP, 1_000_000_000_000))
	if int64(len(oversize)) <= int64(len(valid))+16 {
		t.Fatalf("oversize body not oversized: %d vs cap %d", len(oversize), len(valid)+16)
	}

	otherFP := "0123456789abcdef"
	stale := mustJSON(t, testProfile(otherFP, 1))

	unknownField := []byte(`{"schema":"tnsr/pgo-profile/v1","runs":1,"bogus":true}`)
	wrongSchema := []byte(`{"schema":"tnsr/pgo-profile/v9","runs":1}`)
	noFingerprint := mustJSON(t, &pgo.Profile{Schema: pgo.Schema, Runs: 1,
		Spaces: []pgo.SpaceProfile{{Space: "user",
			Procs: []pgo.ProcWeight{{Name: "p", Calls: 1}}}}})

	for _, tc := range []struct {
		name string
		path string
		body []byte
		want int
	}{
		{"oversized", path, oversize, http.StatusRequestEntityTooLarge},
		{"garbage", path, []byte("{nope"), http.StatusBadRequest},
		{"unknown-field", path, unknownField, http.StatusBadRequest},
		{"wrong-schema", path, wrongSchema, http.StatusBadRequest},
		{"no-fingerprint", path, noFingerprint, http.StatusBadRequest},
		{"stale-fingerprint", path, stale, http.StatusConflict},
		{"bad-path-fp-short", profilesPrefix + "abc", valid, http.StatusBadRequest},
		{"bad-path-fp-upper", profilesPrefix + "00000000DEADBEEF", valid, http.StatusBadRequest},
		{"bad-path-fp-traversal", profilesPrefix + "../../etc/passwd", valid, http.StatusBadRequest},
	} {
		w := do(s, http.MethodPost, tc.path, "", tc.body)
		if w.Code != tc.want {
			t.Errorf("%s: code %d, want %d (%s)", tc.name, w.Code, tc.want, w.Body.String())
		}
	}

	// None of those rejects may have created an aggregate.
	if fps, _ := s.cfg.Store.List(); len(fps) != 0 {
		t.Errorf("rejected uploads left aggregates behind: %v", fps)
	}

	if w := do(s, http.MethodPut, path, "", valid); w.Code != http.StatusMethodNotAllowed {
		t.Errorf("PUT: code %d, want 405", w.Code)
	}
	if w := do(s, http.MethodGet, "/v2/profiles/"+testFP, "", nil); w.Code != http.StatusNotFound {
		t.Errorf("unknown path: code %d, want 404", w.Code)
	}
	if w := do(s, http.MethodGet, path, "", nil); w.Code != http.StatusNotFound {
		t.Errorf("absent aggregate: code %d, want 404", w.Code)
	}
}

func TestRateLimit(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.RatePerSec = 0.0001; c.RateBurst = 2 })
	path := profilesPrefix + testFP
	codes := []int{}
	for i := 0; i < 4; i++ {
		codes = append(codes, do(s, http.MethodGet, path, "", nil).Code)
	}
	// Burst of 2 passes (to 404, the aggregate being absent), then the
	// bucket is dry and the refill rate is negligible.
	want := []int{404, 404, 429, 429}
	for i := range want {
		if codes[i] != want[i] {
			t.Fatalf("request %d: code %d, want %d (all: %v)", i, codes[i], want[i], codes)
		}
	}
	// Health stays reachable when the bucket is dry: the probe must not be
	// starved by a chatty fleet.
	if w := do(s, http.MethodGet, "/healthz", "", nil); w.Code != http.StatusOK {
		t.Errorf("/healthz rate-limited: %d", w.Code)
	}
}

// TestConcurrentUploadsOneFingerprint hammers a single fingerprint from
// many goroutines (run under -race) and requires the final aggregate to be
// exactly the order-independent merge of everything pushed.
func TestConcurrentUploadsOneFingerprint(t *testing.T) {
	s := newTestServer(t, nil)
	path := profilesPrefix + testFP

	const workers, perWorker = 8, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				scale := int64(w*perWorker + i + 1)
				body := mustJSON(t, testProfile(testFP, scale))
				if rec := do(s, http.MethodPost, path, "", body); rec.Code != http.StatusOK {
					t.Errorf("worker %d push %d: code %d: %s", w, i, rec.Code, rec.Body.String())
				}
			}
		}(w)
	}
	wg.Wait()

	var all []*pgo.Profile
	for i := 1; i <= workers*perWorker; i++ {
		all = append(all, testProfile(testFP, int64(i)))
	}
	want, err := pgo.Merge(all...)
	if err != nil {
		t.Fatal(err)
	}
	got := do(s, http.MethodGet, path, "", nil)
	if got.Code != http.StatusOK {
		t.Fatalf("fetch: code %d", got.Code)
	}
	if !bytes.Equal(got.Body.Bytes(), mustJSON(t, want)) {
		t.Error("aggregate after concurrent pushes is not the order-independent merge")
	}
}

// TestAgingExactlyReproducible: with AgeEvery = 4, the fourth upload
// triggers aging, and the served aggregate must be byte-for-byte
// pgo.Age(merge of all four, floor) — the decay is deterministic, not
// approximate.
func TestAgingExactlyReproducible(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.AgeEvery = 4; c.AgeFloor = 2 })
	path := profilesPrefix + testFP

	var all []*pgo.Profile
	var last *httptest.ResponseRecorder
	for i := 1; i <= 4; i++ {
		p := testProfile(testFP, int64(i))
		all = append(all, p)
		last = do(s, http.MethodPost, path, "", mustJSON(t, p))
		if last.Code != http.StatusOK {
			t.Fatalf("push %d: code %d: %s", i, last.Code, last.Body.String())
		}
	}
	merged, err := pgo.Merge(all...)
	if err != nil {
		t.Fatal(err)
	}
	want := mustJSON(t, pgo.Age(merged, 2))
	if !bytes.Equal(last.Body.Bytes(), want) {
		t.Errorf("aged aggregate differs from pgo.Age(merge, floor):\ngot  %s\nwant %s",
			last.Body.String(), want)
	}
	// Aging halved Runs below AgeEvery, so the decay self-clocks rather
	// than firing on every subsequent push.
	agg, err := s.cfg.Store.Load(testFP)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Runs >= 4 {
		t.Errorf("aged aggregate Runs = %d, still >= AgeEvery", agg.Runs)
	}
}

// TestTornWriteNeverServed simulates the crash window of the atomic write:
// a leftover .tmp file (killed between write and rename) must be invisible
// to Load and List, and a damaged final file must produce a typed 500,
// never advice.
func TestTornWriteNeverServed(t *testing.T) {
	s := newTestServer(t, nil)
	store := s.cfg.Store
	path := profilesPrefix + testFP

	// Crash before rename: half a JSON file under the temp name.
	torn := mustJSON(t, testProfile(testFP, 3))
	if err := os.WriteFile(store.Path(testFP)+tmpSuffix, torn[:len(torn)/2], 0o666); err != nil {
		t.Fatal(err)
	}
	if w := do(s, http.MethodGet, path, "", nil); w.Code != http.StatusNotFound {
		t.Errorf("torn tmp file visible: GET = %d, want 404", w.Code)
	}
	if fps, _ := store.List(); len(fps) != 0 {
		t.Errorf("torn tmp file listed: %v", fps)
	}

	// The next upload must succeed and leave a valid aggregate in place of
	// the debris.
	if w := do(s, http.MethodPost, path, "", mustJSON(t, testProfile(testFP, 1))); w.Code != http.StatusOK {
		t.Fatalf("upload after torn tmp: code %d: %s", w.Code, w.Body.String())
	}
	if p, err := store.Load(testFP); err != nil || p == nil {
		t.Fatalf("aggregate after recovery: %v, %v", p, err)
	}

	// Damage the final file: serving must refuse with a 500, and the next
	// merge must also surface the damage rather than silently resetting.
	if err := os.WriteFile(store.Path(testFP), []byte("{torn"), 0o666); err != nil {
		t.Fatal(err)
	}
	if w := do(s, http.MethodGet, path, "", nil); w.Code != http.StatusInternalServerError {
		t.Errorf("damaged aggregate served: GET = %d, want 500", w.Code)
	}
	if w := do(s, http.MethodPost, path, "", mustJSON(t, testProfile(testFP, 1))); w.Code != http.StatusInternalServerError {
		t.Errorf("merge over damaged aggregate: code %d, want 500", w.Code)
	}
}

func TestMetricsExposition(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Token = "tok" })
	path := profilesPrefix + testFP
	do(s, http.MethodPost, path, "tok", mustJSON(t, testProfile(testFP, 1)))
	do(s, http.MethodGet, path, "tok", nil)
	do(s, http.MethodGet, path, "", nil) // auth reject

	w := do(s, http.MethodGet, "/metrics", "", nil)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	body := w.Body.String()
	for _, want := range []string{
		`tnsr_profsrv_uploads_total 1`,
		`tnsr_profsrv_served_total 1`,
		`tnsr_profsrv_stored_profiles 1`,
		`tnsr_profsrv_rejects_total{reason="auth"} 1`,
		fmt.Sprintf(`tnsr_profsrv_requests_total{method="POST",code="200"} 1`),
		`# TYPE tnsr_profsrv_requests_total counter`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}
}

// doFrom is do with an explicit client address — the handler is driven
// directly, so the test controls exactly what client population the
// per-client rate limiter sees.
func doFrom(s *Server, remoteAddr, method, path, token string, body []byte) *httptest.ResponseRecorder {
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, path, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	r.RemoteAddr = remoteAddr
	if token != "" {
		r.Header.Set("Authorization", "Bearer "+token)
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

// TestRateLimitPerClientIsolation is the fleet-fairness property: one
// abusive machine draining its own bucket must never cause a 429 for a
// well-behaved neighbour — whether the neighbour differs by address or
// (behind one NAT) by token.
func TestRateLimitPerClientIsolation(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.RatePerSec = 0.0001; c.RateBurst = 2 })
	path := profilesPrefix + testFP

	// The abuser hammers until well past its burst: everything after the
	// first two must be 429.
	abuse := []int{}
	for i := 0; i < 10; i++ {
		abuse = append(abuse, doFrom(s, "10.77.0.1:40000", http.MethodGet, path, "", nil).Code)
	}
	for i, code := range abuse {
		want := 404
		if i >= 2 {
			want = 429
		}
		if code != want {
			t.Fatalf("abuser request %d: code %d, want %d (all: %v)", i, code, want, abuse)
		}
	}

	// A different machine arrives mid-storm with a full bucket.
	for i := 0; i < 2; i++ {
		if w := doFrom(s, "10.77.0.2:40001", http.MethodGet, path, "", nil); w.Code != 404 {
			t.Fatalf("victim request %d caught the abuser's 429: code %d", i, w.Code)
		}
	}

	// Same address, different token — distinct principals behind one NAT
	// are distinct clients too.
	if w := doFrom(s, "10.77.0.1:40002", http.MethodGet, path, "other-token", nil); w.Code != 404 {
		t.Fatalf("distinct token shared the abuser's bucket: code %d", w.Code)
	}

	// And the abuser is still dry: the victims' admissions did not refill it.
	if w := doFrom(s, "10.77.0.1:40003", http.MethodGet, path, "", nil); w.Code != 429 {
		t.Fatalf("abuser escaped its own limit: code %d", w.Code)
	}
}

// TestRateLimitBucketTableBounded: an address-spoofing client cycling
// through arbitrarily many identities cannot grow the bucket table without
// limit, and legitimate clients keep being admitted throughout.
func TestRateLimitBucketTableBounded(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.RatePerSec = 0.0001; c.RateBurst = 1 })
	path := profilesPrefix + testFP
	for i := 0; i < svc.MaxClients+100; i++ {
		addr := fmt.Sprintf("10.%d.%d.%d:1", i>>16&0xFF, i>>8&0xFF, i&0xFF)
		if w := doFrom(s, addr, http.MethodGet, path, "", nil); w.Code != 404 {
			t.Fatalf("fresh client %d: code %d, want 404", i, w.Code)
		}
	}
	if n := s.c.Clients(); n > svc.MaxClients {
		t.Fatalf("bucket table grew to %d entries (cap %d)", n, svc.MaxClients)
	}
}
