package profsrv

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"tnsr/internal/pgo"
	"tnsr/internal/svc"
)

// fuzzSeeds are the deliberate corpus entries, each aimed at one gate of
// the request path: routing, fingerprint validation, the strict parser,
// the fingerprint pin, the merge, and the method switch. Checked in under
// testdata/fuzz/FuzzProfsrvHandler (see TestRegenProfsrvFuzzCorpus).
func fuzzSeeds() map[string]struct {
	method, path string
	body         []byte
} {
	validBody, err := (&pgo.Profile{
		Schema: pgo.Schema,
		Runs:   1,
		Spaces: []pgo.SpaceProfile{{
			Space:       "user",
			Fingerprint: "00000000deadbeef",
			Procs:       []pgo.ProcWeight{{Name: "p", Calls: 2, InterpInstrs: 9}},
		}},
	}).JSON()
	if err != nil {
		panic(err)
	}
	type seed = struct {
		method, path string
		body         []byte
	}
	return map[string]seed{
		"healthz":        {"GET", "/healthz", nil},
		"metrics":        {"GET", "/metrics", nil},
		"get-absent":     {"GET", "/v1/profiles/00000000deadbeef", nil},
		"post-valid":     {"POST", "/v1/profiles/00000000deadbeef", validBody},
		"post-stale":     {"POST", "/v1/profiles/0123456789abcdef", validBody},
		"post-garbage":   {"POST", "/v1/profiles/00000000deadbeef", []byte("{")},
		"bad-fp":         {"GET", "/v1/profiles/..%2f..%2fescape", nil},
		"method":         {"DELETE", "/v1/profiles/00000000deadbeef", nil},
		"unrouted":       {"GET", "/v1/other", nil},
		"deep-json":      {"POST", "/v1/profiles/00000000deadbeef", []byte(`{"schema":"tnsr/pgo-profile/v1","runs":-1}`)},
		"unknown-fields": {"POST", "/v1/profiles/00000000deadbeef", []byte(`{"schema":"tnsr/pgo-profile/v1","runs":1,"extra":{}}`)},
	}
}

// FuzzProfsrvHandler drives the entire daemon request path — routing,
// limits, parsing, merge, persistence — with arbitrary method/path/body
// triples. Invariants: no panic, every response carries a routable status
// code, and whatever ends up in the store must still load through the
// strict parser (a hostile upload can be rejected, never half-persisted).
func FuzzProfsrvHandler(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s.method, s.path, s.body)
	}
	f.Fuzz(func(t *testing.T, method, path string, body []byte) {
		store, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		// Auth off so the fuzzer reaches the deep handlers; MaxBody small so
		// it can trip the size gate with feasible inputs; AgeEvery tiny so
		// the aging path runs.
		srv := New(Config{Store: store, Limits: svc.Limits{MaxBody: 4096}, AgeEvery: 2})

		req, err := http.NewRequest(method, "http://tnsprofd"+path, bytes.NewReader(body))
		if err != nil {
			t.Skip() // not expressible as an HTTP request; nothing to test
		}
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)

		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusNotFound,
			http.StatusMethodNotAllowed, http.StatusConflict,
			http.StatusRequestEntityTooLarge, http.StatusTooManyRequests,
			http.StatusUnauthorized, http.StatusInternalServerError:
		default:
			t.Fatalf("unexpected status %d for %s %q", rec.Code, method, path)
		}

		// A 200 POST response body must itself be a valid canonical profile.
		if rec.Code == http.StatusOK && method == http.MethodPost {
			if _, err := pgo.ParseProfile(rec.Body.Bytes()); err != nil {
				t.Fatalf("200 upload response is not a valid profile: %v", err)
			}
		}

		// Nothing in the store may be unloadable, and no temp debris may
		// survive a completed request.
		fps, err := store.List()
		if err != nil {
			t.Fatalf("store unlistable after request: %v", err)
		}
		for _, fp := range fps {
			if _, err := store.Load(fp); err != nil {
				t.Fatalf("stored aggregate %s unloadable: %v", fp, err)
			}
		}
	})
}

// TestRegenProfsrvFuzzCorpus rewrites the checked-in fuzz corpus from
// fuzzSeeds (run with REGEN_FUZZ_CORPUS=1 after changing the seeds);
// normally it just asserts the checked-in files match.
func TestRegenProfsrvFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzProfsrvHandler")
	regen := os.Getenv("REGEN_FUZZ_CORPUS") != ""
	if regen {
		if err := os.MkdirAll(dir, 0o777); err != nil {
			t.Fatal(err)
		}
	}
	for name, s := range fuzzSeeds() {
		want := fmt.Sprintf("go test fuzz v1\nstring(%q)\nstring(%q)\n[]byte(%q)\n",
			s.method, s.path, s.body)
		path := filepath.Join(dir, name)
		if regen {
			if err := os.WriteFile(path, []byte(want), 0o666); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (set REGEN_FUZZ_CORPUS=1 to regenerate)", err)
		}
		if string(got) != want {
			t.Errorf("%s is stale (set REGEN_FUZZ_CORPUS=1 to regenerate)", name)
		}
	}
}
