package xlate

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/faultsim"
	"tnsr/internal/retry"
)

// TestFetchBodyShorterThanDeclared: a served body that ends short of its
// Content-Length is a transient fetch error wrapping io.ErrUnexpectedEOF.
func TestFetchBodyShorterThanDeclared(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		conn, buf, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Error(err)
			return
		}
		buf.WriteString("HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n0123456789")
		buf.Flush()
		conn.Close()
	}))
	defer hs.Close()
	_, _, err := NewClient(hs.URL, "").Fetch("0123456789abcdef")
	if !errors.Is(err, io.ErrUnexpectedEOF) || retry.IsTerminal(err) {
		t.Fatalf("Fetch = %v, want a transient unexpected EOF", err)
	}
}

// TestFetchDamagedBodies: the served codefile is read whole into one
// buffer of its declared length; through faultsim, the same fetch cut
// short of that length, or with a byte flipped, is a typed, transient
// error, never a codefile.
func TestFetchDamagedBodies(t *testing.T) {
	hs := httptest.NewServer(newServer(t, nil))
	t.Cleanup(hs.Close)
	c := NewClient(hs.URL, "")
	if err := c.Accelerate(buildFile(t, 1), core.Options{}); err != nil {
		t.Fatal(err)
	}
	key, err := core.Options{}.TransKey(buildFile(t, 1).Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	want := localBytes(t, 1, core.Options{})
	if _, data, err := c.Fetch(key); err != nil || !bytes.Equal(data, want) || cap(data) != len(data) {
		t.Fatalf("clean fetch: %d bytes in a %d-byte buffer, %v; want the local translation's %d",
			len(data), cap(data), err, len(want))
	}
	for _, d := range []struct {
		name  string
		opts  faultsim.TransportOpts
		typed func(error) bool
	}{
		{"truncated", faultsim.TransportOpts{PTruncate: 1},
			func(err error) bool { return errors.Is(err, io.ErrUnexpectedEOF) }},
		{"corrupted", faultsim.TransportOpts{Seed: 3, PCorrupt: 1}, codefile.IsCorrupt},
	} {
		fc := NewClient(hs.URL, "")
		fc.HTTPClient = &http.Client{Transport: faultsim.WrapTransport(http.DefaultTransport, d.opts)}
		cf, _, err := fc.Fetch(key)
		if cf != nil || !d.typed(err) || retry.IsTerminal(err) {
			t.Errorf("%s: Fetch = %v, %v; want a typed transient error", d.name, cf != nil, err)
		}
	}
}
