package xlate

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tnsr/internal/backend/ob0"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
)

// TestRemoteBackendByteIdentical: a submit for ob0 is translated for ob0 —
// the grafted section carries ob0's id and the bytes equal a local ob0
// translation.
func TestRemoteBackendByteIdentical(t *testing.T) {
	srv := httptest.NewServer(newServer(t, nil))
	defer srv.Close()
	opts := core.Options{Level: codefile.LevelDefault, Backend: ob0.Default}
	f := buildFile(t, 3)
	if err := NewClient(srv.URL, "").Accelerate(f, opts); err != nil {
		t.Fatal(err)
	}
	if got := f.Accel.BackendID; got != ob0.Default.ID() {
		t.Fatalf("grafted section for backend id %d, want %d", got, ob0.Default.ID())
	}
	if !bytes.Equal(mustBytes(t, f), localBytes(t, 3, opts)) {
		t.Error("remote ob0 translation differs from local")
	}
}

// TestSubmitBackendKeys: one codefile submitted for mips and for ob0 gets
// two keys, and only the ob0 body names its backend.
func TestSubmitBackendKeys(t *testing.T) {
	s := newServer(t, nil)
	f := buildFile(t, 3)
	keys := map[string]bool{}
	for _, opts := range []core.Options{{}, {Backend: ob0.Default}} {
		req, err := EncodeRequest(f, opts)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := json.Marshal(req)
		if named := bytes.Contains(body, []byte(`"backend"`)); named != (opts.Backend != nil) {
			t.Errorf("backend %v: body names a backend = %v", opts.Backend, named)
		}
		w := do(s, http.MethodPost, "/v1/xlate", "", body)
		var st Status
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil || st.Key == "" {
			t.Fatalf("submit: %d %s", w.Code, w.Body.String())
		}
		keys[st.Key] = true
	}
	s.jobWG.Wait() // both translations finish before Cleanup closes the queue
	if len(keys) != 2 {
		t.Errorf("mips and ob0 submits share a key: %v", keys)
	}
}

// TestSubmitUnknownBackend: a backend the server does not know is a typed
// 400, counted under the options reason.
func TestSubmitUnknownBackend(t *testing.T) {
	s := newServer(t, nil)
	req, err := EncodeRequest(buildFile(t, 3), core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	req.Backend = "vax"
	body, _ := json.Marshal(req)
	if w := do(s, http.MethodPost, "/v1/xlate", "", body); w.Code != http.StatusBadRequest ||
		!strings.Contains(w.Body.String(), `unknown backend "vax"`) {
		t.Fatalf("unknown backend: %d %s", w.Code, w.Body.String())
	}
	m := do(s, http.MethodGet, "/metrics", "", nil).Body.String()
	if !strings.Contains(m, `tnsr_xlated_rejects_total{reason="options"} 1`) {
		t.Errorf("unknown backend not counted as an options reject:\n%s", m)
	}
}

// TestGraftRefusesWrongBackend: a server that serves a mips section to an
// ob0 request is refused at graft, and the local file stays unaccelerated.
func TestGraftRefusesWrongBackend(t *testing.T) {
	mipsBytes := localBytes(t, 3, core.Options{})
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			json.NewEncoder(w).Encode(Status{Schema: StatusSchema, Key: "0123456789abcdef", State: StateDone})
			return
		}
		w.Write(mipsBytes)
	}))
	defer stub.Close()
	f := buildFile(t, 3)
	err := NewClient(stub.URL, "").Accelerate(f, core.Options{Backend: ob0.Default})
	if err == nil || !strings.Contains(err.Error(), "want ob0") {
		t.Fatalf("mips section grafted for an ob0 request: err = %v", err)
	}
	if f.Accel != nil {
		t.Error("refused section was grafted anyway")
	}
}
