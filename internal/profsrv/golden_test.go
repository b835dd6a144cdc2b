package profsrv

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/iotest"
	"time"
)

// checkGolden compares got with testdata/name, or rewrites the file when
// GOLDEN_REGEN=1 (run that only on the tree whose output is the reference).
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("GOLDEN_REGEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (GOLDEN_REGEN=1 writes it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestMetricsGolden pins /metrics byte for byte after a scripted sequence
// with one dead peer: one request per typed reject, two uploads (the
// second ages the aggregate), GETs that degrade the peer until its breaker
// opens and then fast-fail it, then drain on. Every request but the rate
// pair comes from its own address, so the tiny rate limit refuses exactly
// one.
func TestMetricsGolden(t *testing.T) {
	const peer = "http://peer-a.invalid:9911"
	s := newTestServer(t, func(c *Config) {
		c.Token = "t0k"
		c.MaxBody = 4096
		c.RatePerSec = 0.0001
		c.RateBurst = 1
		c.AgeEvery = 2
		c.Peers = []string{peer}
		c.PeerBreakAfter = 2
		c.PeerBreakCooldown = time.Hour
	})
	s.peerHTTP.Transport = roundTripFunc(func(*http.Request) (*http.Response, error) {
		return nil, errors.New("connection refused")
	})
	client := 0
	send := func(addr, method, path, token string, body io.Reader, want int) *httptest.ResponseRecorder {
		t.Helper()
		if addr == "" {
			client++
			addr = fmt.Sprintf("10.0.0.%d:4000", client)
		}
		r := httptest.NewRequest(method, path, body)
		r.RemoteAddr = addr
		if token != "" {
			r.Header.Set("Authorization", "Bearer "+token)
		}
		w := httptest.NewRecorder()
		s.ServeHTTP(w, r)
		if w.Code != want {
			t.Fatalf("%s %s: status %d, want %d: %s", method, path, w.Code, want, w.Body.String())
		}
		return w
	}
	path := profilesPrefix + testFP
	upload := func(body []byte, want int) *httptest.ResponseRecorder {
		t.Helper()
		return send("", http.MethodPost, path, "t0k", bytes.NewReader(body), want)
	}

	send("", http.MethodGet, "/nope", "", nil, http.StatusNotFound)
	send("", http.MethodPost, path, "", strings.NewReader("{}"), http.StatusUnauthorized)
	send("", http.MethodGet, profilesPrefix+"NOT-A-FP", "t0k", nil, http.StatusBadRequest)
	send("", http.MethodPut, path, "t0k", nil, http.StatusMethodNotAllowed)
	upload(bytes.Repeat([]byte("x"), 5000), http.StatusRequestEntityTooLarge)
	send("", http.MethodPost, path, "t0k",
		io.MultiReader(strings.NewReader("{"), iotest.ErrReader(errors.New("connection reset"))),
		http.StatusBadRequest)
	upload([]byte("not json"), http.StatusBadRequest)
	noFP := testProfile(testFP, 1)
	noFP.Spaces[0].Space = "lib"
	upload(mustJSON(t, noFP), http.StatusBadRequest)
	upload(mustJSON(t, testProfile("00000000cafef00d", 1)), http.StatusConflict)
	upload(mustJSON(t, testProfile(testFP, 1)), http.StatusOK)
	upload(mustJSON(t, testProfile(testFP, 2)), http.StatusOK)
	for i := 0; i < 3; i++ { // degrade, degrade and trip, fast-fail
		send("", http.MethodGet, path, "t0k", nil, http.StatusOK)
	}
	send("10.0.1.1:4000", http.MethodGet, profilesPrefix+"00000000cafef00d", "t0k", nil, http.StatusNotFound)
	if w := send("10.0.1.1:4001", http.MethodGet, path, "t0k", nil,
		http.StatusTooManyRequests); w.Header().Get("Retry-After") != "1" {
		t.Fatalf("429 Retry-After = %q", w.Header().Get("Retry-After"))
	}
	send("", http.MethodPost, "/metrics", "", nil, http.StatusMethodNotAllowed)
	send("", http.MethodGet, "/healthz", "", nil, http.StatusOK)
	s.SetDraining(true)
	if w := upload(mustJSON(t, testProfile(testFP, 1)), http.StatusServiceUnavailable); w.Header().Get("Retry-After") != "1" {
		t.Fatalf("503 Retry-After = %q", w.Header().Get("Retry-After"))
	}
	send("", http.MethodGet, path, "t0k", nil, http.StatusOK) // reads keep serving

	w := send("", http.MethodGet, "/metrics", "", nil, http.StatusOK)
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	checkGolden(t, "metrics.prom", w.Body.Bytes())
}
