package backend_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"tnsr/internal/backend"
	"tnsr/internal/backend/mips"
	"tnsr/internal/backend/ob0"
)

// TestMillicodeGolden pins every target's assembled millicode across
// commits: each word, then the label table. The conformance kit only checks
// that the entry labels exist and that every word disassembles, and
// TestMIPSBackendByteStable hashes translated sections only, so a change to
// an assembler or a millicode source would otherwise reach every run
// unseen. GOLDEN_REGEN=1 rewrites the files (run that only on the tree
// whose millicode is the reference).
func TestMillicodeGolden(t *testing.T) {
	for _, be := range []backend.Backend{mips.Default, ob0.Default} {
		code, labels := be.Millicode()
		var b bytes.Buffer
		fmt.Fprintf(&b, "%d words\n", len(code))
		for i, w := range code {
			fmt.Fprintf(&b, "%04d %08x\n", i, w)
		}
		names := make([]string, 0, len(labels))
		for l := range labels {
			names = append(names, l)
		}
		sort.Strings(names)
		for _, l := range names {
			fmt.Fprintf(&b, "label %s %d\n", l, labels[l])
		}
		checkGolden(t, "millicode-"+be.Name()+".golden", b.Bytes())
	}
}

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
