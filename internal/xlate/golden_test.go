package xlate

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"testing/iotest"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
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

// stealsLine is the one scheduling-dependent value in the exposition.
var stealsLine = regexp.MustCompile(`(?m)^tnsr_xlated_queue_steals_total \d+$`)

// TestMetricsGolden pins /metrics byte for byte after a scripted sequence:
// one request per typed reject, a submit, its fetch, a cached resubmit,
// then drain on. Every request but the rate pair comes from its own
// address, so the tiny rate limit refuses exactly one.
func TestMetricsGolden(t *testing.T) {
	s := newServer(t, func(c *Config) {
		c.Token = "t0k"
		c.MaxBody = 1 << 20
		c.RatePerSec = 0.0001
		c.RateBurst = 1
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
	post := func(body []byte, want int) *httptest.ResponseRecorder {
		t.Helper()
		return send("", http.MethodPost, "/v1/xlate", "t0k", bytes.NewReader(body), want)
	}
	jsonBody := func(req any) []byte {
		data, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	send("", http.MethodGet, "/nope", "", nil, http.StatusNotFound)
	send("", http.MethodPost, "/v1/xlate", "", strings.NewReader("{}"), http.StatusUnauthorized)
	post(bytes.Repeat([]byte("x"), 2<<20), http.StatusRequestEntityTooLarge)
	send("", http.MethodPost, "/v1/xlate", "t0k",
		io.MultiReader(strings.NewReader("{"), iotest.ErrReader(errors.New("connection reset"))),
		http.StatusBadRequest)
	post([]byte("not json"), http.StatusBadRequest)
	post([]byte(`{"schema":"wrong/v9"}`), http.StatusBadRequest)
	post(jsonBody(SubmitRequest{Schema: SubmitSchema, Level: "warp"}), http.StatusBadRequest)
	post(jsonBody(SubmitRequest{Schema: SubmitSchema, Codefile: []byte("junk")}), http.StatusBadRequest)
	send("", http.MethodPost, "/v1/xlate/extra", "t0k", strings.NewReader("{}"), http.StatusBadRequest)
	send("", http.MethodGet, "/v1/xlate/NOT-A-KEY", "t0k", nil, http.StatusBadRequest)
	send("", http.MethodDelete, "/v1/xlate/0123456789abcdef", "t0k", nil, http.StatusMethodNotAllowed)
	send("10.0.1.1:4000", http.MethodGet, "/v1/xlate/0123456789abcdef", "t0k", nil, http.StatusNotFound)
	if w := send("10.0.1.1:4001", http.MethodGet, "/v1/xlate/0123456789abcdef", "t0k", nil,
		http.StatusTooManyRequests); w.Header().Get("Retry-After") != "1" {
		t.Fatalf("429 Retry-After = %q", w.Header().Get("Retry-After"))
	}
	send("", http.MethodPost, "/metrics", "", nil, http.StatusMethodNotAllowed)

	req, err := EncodeRequest(buildFile(t, 5), core.Options{Level: codefile.LevelDefault})
	if err != nil {
		t.Fatal(err)
	}
	submit := jsonBody(req)
	var st Status
	if err := json.Unmarshal(post(submit, http.StatusAccepted).Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	s.jobWG.Wait()
	send("", http.MethodGet, "/v1/xlate/"+st.Key, "t0k", nil, http.StatusOK)
	post(submit, http.StatusOK)
	send("", http.MethodGet, "/healthz", "", nil, http.StatusOK)
	s.SetDraining(true)
	if w := post(submit, http.StatusServiceUnavailable); w.Header().Get("Retry-After") != "1" {
		t.Fatalf("503 Retry-After = %q", w.Header().Get("Retry-After"))
	}

	w := send("", http.MethodGet, "/metrics", "", nil, http.StatusOK)
	if ct := w.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	got := stealsLine.ReplaceAll(w.Body.Bytes(), []byte("tnsr_xlated_queue_steals_total STEALS"))
	checkGolden(t, "metrics.prom", got)
}
