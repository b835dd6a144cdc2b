package svc

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"testing/iotest"
	"time"

	"tnsr/internal/obs"
)

// echo is a minimal server on the chassis: POST /v1/echo/ reads the body
// through ReadBody and echoes it; GET answers its rest path.
type echo struct {
	c         *Chassis
	metricErr error
	shutdowns atomic.Int64
}

func newEcho(lim Limits) *echo {
	e := &echo{}
	if lim.MaxBody == 0 {
		lim.MaxBody = 64
	}
	e.c = New(lim, Routes{Family: "tnsr_echo", Prefix: "/v1/echo/",
		Serve: func(w http.ResponseWriter, r *http.Request, rest string) {
			if r.Method == http.MethodGet {
				e.c.Respond(w, r, http.StatusOK, []byte(rest), "text/plain")
				return
			}
			if body, ok := e.c.ReadBody(w, r, "echo"); ok {
				e.c.Respond(w, r, http.StatusOK, body, "text/plain")
			}
		},
		Metrics: func(p *obs.Prom) error {
			p.Counter("tnsr_echo_things_total", "Things.", 7)
			return e.metricErr
		},
	})
	return e
}

func (e *echo) ServeHTTP(w http.ResponseWriter, r *http.Request) { e.c.ServeHTTP(w, r) }

func (e *echo) Shutdown(context.Context) error {
	e.shutdowns.Add(1)
	e.c.SetDraining(true)
	return nil
}

func send(h http.Handler, addr, method, path, token string, body io.Reader) *httptest.ResponseRecorder {
	r := httptest.NewRequest(method, path, body)
	if addr != "" {
		r.RemoteAddr = addr
	}
	if token != "" {
		r.Header.Set("Authorization", "Bearer "+token)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w
}

// TestChassisGates: the probes stay open, everything else off the prefix
// is a 404, and the prefix needs the bearer token.
func TestChassisGates(t *testing.T) {
	e := newEcho(Limits{Token: "s3cret"})
	for _, c := range []struct {
		method, path, token string
		want                int
	}{
		{http.MethodGet, "/healthz", "", http.StatusOK},
		{http.MethodPost, "/healthz", "", http.StatusOK},
		{http.MethodGet, "/metrics", "", http.StatusOK},
		{http.MethodPost, "/metrics", "", http.StatusMethodNotAllowed},
		{http.MethodGet, "/elsewhere", "s3cret", http.StatusNotFound},
		{http.MethodGet, "/v1/echo/x", "", http.StatusUnauthorized},
		{http.MethodGet, "/v1/echo/x", "s3cre", http.StatusUnauthorized},
		{http.MethodGet, "/v1/echo/x", "s3cret", http.StatusOK},
	} {
		if w := send(e, "", c.method, c.path, c.token, nil); w.Code != c.want {
			t.Errorf("%s %s token %q: %d, want %d", c.method, c.path, c.token, w.Code, c.want)
		}
	}
	if w := send(e, "", http.MethodGet, "/v1/echo/abc", "s3cret", nil); w.Body.String() != "abc" {
		t.Errorf("route saw rest %q, want %q", w.Body.String(), "abc")
	}
}

// TestChassisReadBody: the drain flag refuses writes with 503 +
// Retry-After while reads keep serving; the body cap splits 413 from a
// failed read's 400.
func TestChassisReadBody(t *testing.T) {
	e := newEcho(Limits{MaxBody: 8})
	if w := send(e, "", http.MethodPost, "/v1/echo/", "", strings.NewReader("12345678")); w.Code != http.StatusOK || w.Body.String() != "12345678" {
		t.Errorf("body at the cap: %d %q", w.Code, w.Body.String())
	}
	if w := send(e, "", http.MethodPost, "/v1/echo/", "", strings.NewReader("123456789")); w.Code != http.StatusRequestEntityTooLarge ||
		!strings.Contains(w.Body.String(), "echo exceeds 8 bytes") {
		t.Errorf("body past the cap: %d %q", w.Code, w.Body.String())
	}
	broken := io.MultiReader(strings.NewReader("1"), iotest.ErrReader(errors.New("reset")))
	if w := send(e, "", http.MethodPost, "/v1/echo/", "", broken); w.Code != http.StatusBadRequest {
		t.Errorf("failed read: %d, want 400", w.Code)
	}
	e.c.SetDraining(true)
	w := send(e, "", http.MethodPost, "/v1/echo/", "", strings.NewReader("1"))
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") != "1" {
		t.Errorf("write while draining: %d Retry-After %q", w.Code, w.Header().Get("Retry-After"))
	}
	if w := send(e, "", http.MethodGet, "/v1/echo/x", "", nil); w.Code != http.StatusOK {
		t.Errorf("read while draining: %d, want 200", w.Code)
	}
}

// TestReadSized: a declared length within the cap is read into one buffer
// of that length and a body ending short of it is an error; an unknown or
// over-cap length reads the body as io.ReadAll does.
func TestReadSized(t *testing.T) {
	for _, c := range []struct {
		name        string
		body        string
		size, limit int64
		want        string
		err         error
		exact       bool // read into a buffer of exactly the declared length
	}{
		{"declared", "abcd", 4, 8, "abcd", nil, true},
		{"declared at the cap", "abcdefgh", 8, 8, "abcdefgh", nil, true},
		{"declared empty", "", 0, 8, "", nil, true},
		{"short", "ab", 4, 8, "ab", io.ErrUnexpectedEOF, false},
		{"nothing came", "", 4, 8, "", io.EOF, false},
		{"unknown", "abcdef", -1, 8, "abcdef", nil, false},
		{"past the cap", "abcdefghij", 10, 8, "abcdefghij", nil, false},
	} {
		got, err := ReadSized(strings.NewReader(c.body), c.size, c.limit)
		if string(got) != c.want || err != c.err {
			t.Errorf("%s: ReadSized = %q, %v; want %q, %v", c.name, got, err, c.want, c.err)
		}
		if c.exact && cap(got) != len(got) {
			t.Errorf("%s: read into %d bytes of buffer for %d", c.name, cap(got), len(got))
		}
	}
}

// rawRequest writes req on a fresh connection to addr, closes the write
// half and returns the response's status line.
func rawRequest(t *testing.T, addr, req string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).CloseWrite()
	line, _ := bufio.NewReader(conn).ReadString('\n')
	return strings.TrimSpace(line)
}

// TestChassisDeclaredLength: over a real connection the body is read at
// its declared length — a length past the cap is still the 413, a body
// ending short of its length is the 400 "read" — and every answer
// declares its own length.
func TestChassisDeclaredLength(t *testing.T) {
	e := newEcho(Limits{MaxBody: 8})
	srv := httptest.NewServer(e)
	defer srv.Close()
	post := func(body string) (*http.Response, string) {
		resp, err := http.Post(srv.URL+"/v1/echo/", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, string(b)
	}
	if resp, body := post("12345678"); resp.StatusCode != http.StatusOK || body != "12345678" || resp.ContentLength != 8 {
		t.Errorf("body at the cap: %d %q, Content-Length %d", resp.StatusCode, body, resp.ContentLength)
	}
	if resp, body := post("123456789"); resp.StatusCode != http.StatusRequestEntityTooLarge ||
		!strings.Contains(body, "echo exceeds 8 bytes") {
		t.Errorf("body past the cap: %d %q", resp.StatusCode, body)
	}
	addr := strings.TrimPrefix(srv.URL, "http://")
	short := "POST /v1/echo/ HTTP/1.1\r\nHost: x\r\nContent-Length: 8\r\n\r\n1234"
	if got := rawRequest(t, addr, short); !strings.Contains(got, " 400 ") {
		t.Errorf("body shorter than declared: %q, want a 400", got)
	}
	e.c.mu.Lock()
	reads := e.c.rejects["read"]
	e.c.mu.Unlock()
	if reads != 1 {
		t.Errorf("read rejects = %d, want 1", reads)
	}
}

// TestChassisRateLimit: each host|token pair draws from its own bucket,
// a refusal carries Retry-After, and the bucket table stays bounded
// while a spoofing client cycles identities.
func TestChassisRateLimit(t *testing.T) {
	e := newEcho(Limits{RatePerSec: 0.0001, RateBurst: 2})
	codes := []int{}
	for i := 0; i < 4; i++ {
		codes = append(codes, send(e, "10.0.0.1:1", http.MethodGet, "/v1/echo/x", "", nil).Code)
	}
	if fmt.Sprint(codes) != "[200 200 429 429]" {
		t.Errorf("burst 2 of 4: %v", codes)
	}
	if w := send(e, "10.0.0.1:2", http.MethodGet, "/v1/echo/x", "", nil); w.Header().Get("Retry-After") != "1" {
		t.Errorf("429 without Retry-After: %d", w.Code)
	}
	if w := send(e, "10.0.0.2:1", http.MethodGet, "/v1/echo/x", "", nil); w.Code != http.StatusOK {
		t.Errorf("other host shared the bucket: %d", w.Code)
	}
	if w := send(e, "10.0.0.1:3", http.MethodGet, "/v1/echo/x", "tok", nil); w.Code != http.StatusOK {
		t.Errorf("other token shared the bucket: %d", w.Code)
	}
	for i := 0; i < MaxClients+100; i++ {
		addr := fmt.Sprintf("10.%d.%d.%d:1", i>>16&0xFF, i>>8&0xFF, i&0xFF)
		if w := send(e, addr, http.MethodGet, "/v1/echo/x", "spoof", nil); w.Code != http.StatusOK {
			t.Fatalf("fresh client %d: %d", i, w.Code)
		}
	}
	if n := e.c.Clients(); n > MaxClients {
		t.Errorf("bucket table grew to %d (cap %d)", n, MaxClients)
	}
}

// TestChassisMetrics: requests_total and rejects_total come first, sorted,
// then the server's families; a server that cannot render refuses the
// scrape whole.
func TestChassisMetrics(t *testing.T) {
	e := newEcho(Limits{Token: "t"})
	send(e, "", http.MethodGet, "/v1/echo/x", "t", nil)
	send(e, "", http.MethodGet, "/v1/echo/x", "", nil)
	send(e, "", http.MethodDelete, "/nope", "", nil)
	got := send(e, "", http.MethodGet, "/metrics", "", nil).Body.String()
	want := `# HELP tnsr_echo_requests_total Requests handled, by method and status code.
# TYPE tnsr_echo_requests_total counter
tnsr_echo_requests_total{method="DELETE",code="404"} 1
tnsr_echo_requests_total{method="GET",code="200"} 1
tnsr_echo_requests_total{method="GET",code="401"} 1
# HELP tnsr_echo_rejects_total Rejected requests, by typed reason.
# TYPE tnsr_echo_rejects_total counter
tnsr_echo_rejects_total{reason="auth"} 1
tnsr_echo_rejects_total{reason="path"} 1
# HELP tnsr_echo_things_total Things.
# TYPE tnsr_echo_things_total counter
tnsr_echo_things_total 7
`
	if got != want {
		t.Errorf("/metrics:\n%s\nwant:\n%s", got, want)
	}
	e.metricErr = errors.New("store unreadable")
	if w := send(e, "", http.MethodGet, "/metrics", "", nil); w.Code != http.StatusInternalServerError ||
		strings.Contains(w.Body.String(), "tnsr_") {
		t.Errorf("failing server metrics: %d %q", w.Code, w.Body.String())
	}
}

// TestRunDrainsOnSIGTERM: Run serves until SIGTERM, then calls the
// daemon's Shutdown and returns.
func TestRunDrainsOnSIGTERM(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	// A registration of our own keeps an early SIGTERM from killing the
	// test binary before Run has registered.
	own := make(chan os.Signal, 1)
	signal.Notify(own, syscall.SIGTERM)
	defer signal.Stop(own)

	e := newEcho(Limits{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		Run("echod", addr, e, 5*time.Second)
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if resp, err := http.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("Run never started serving")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for {
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		select {
		case <-done:
			if e.shutdowns.Load() != 1 || !e.c.Draining() {
				t.Errorf("Run returned without draining the daemon (shutdowns %d)", e.shutdowns.Load())
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
	}
}
