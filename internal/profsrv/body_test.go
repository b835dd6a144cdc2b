package profsrv

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestUploadDeclaredLength: tnsprofd reads an upload through the shared
// chassis at its declared length over a real connection. A profile within
// the cap merges and the answer declares its length; one past the cap is
// the 413; one ending short of its declared length is the 400.
func TestUploadDeclaredLength(t *testing.T) {
	valid := mustJSON(t, testProfile(testFP, 1))
	s := newTestServer(t, func(c *Config) { c.MaxBody = int64(len(valid)) + 16 })
	hs := httptest.NewServer(s)
	defer hs.Close()
	url := hs.URL + profilesPrefix + testFP
	post := func(body []byte) (*http.Response, []byte) {
		resp, err := http.Post(url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}
	if resp, b := post(valid); resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(b)) {
		t.Errorf("upload within the cap: %d, Content-Length %d for %d bytes", resp.StatusCode, resp.ContentLength, len(b))
	}
	if resp, _ := post(mustJSON(t, testProfile(testFP, 1_000_000_000_000))); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("upload past the cap: %d, want 413", resp.StatusCode)
	}

	conn, err := net.Dial("tcp", strings.TrimPrefix(hs.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST %s%s HTTP/1.1\r\nHost: x\r\nContent-Length: %d\r\n\r\n%s",
		profilesPrefix, testFP, len(valid), valid[:len(valid)/2])
	conn.(*net.TCPConn).CloseWrite()
	if line, _ := bufio.NewReader(conn).ReadString('\n'); !strings.Contains(line, " 400 ") {
		t.Errorf("upload shorter than declared: %q, want a 400", strings.TrimSpace(line))
	}
}
