package tnsgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestOracleResultsGolden pins RunOracle's verdicts byte for byte: the
// Result JSON (coverage, pass count, breakpoint hits, chaos mutants) of
// the first 40 programs an unsteered campaign from seed 1 draws, every
// fifth a user+library pair, on mips and ob0 with Workers 1; then every
// corpus scenario with the adaptive cycle on and 8 chaos mutants. A change
// to how the oracle assembles, translates or runs its passes must leave
// every line as it is. GOLDEN_REGEN=1 rewrites the file (run that only on
// the tree whose output is the reference).
func TestOracleResultsGolden(t *testing.T) {
	var out bytes.Buffer
	record := func(name string, res *Result, err error) {
		line, jerr := json.Marshal(res)
		if jerr != nil {
			t.Fatal(jerr)
		}
		fmt.Fprintf(&out, "%s %s", name, line)
		if err != nil {
			fmt.Fprintf(&out, " error: %v", err)
		}
		out.WriteByte('\n')
	}

	opts := DefaultOracle()
	opts.Backends = oracleBackends(t)
	opts.Workers = 1
	for i := 0; i < 40; i++ {
		seed := int64(1 + i)
		cfg := RandomConfig(rand.New(rand.NewSource(seed ^ 0x5DEECE66D)))
		if i%5 == 4 {
			cfg = Config{Library: true}
		}
		name := fmt.Sprintf("gen%d", seed)
		res, err := RunOracle(Generate(name, seed, cfg).Subject(), opts)
		record(name, res, err)
	}

	scenarios, err := LoadCorpus("corpus")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scenarios {
		o := opts
		o.Adaptive, o.Chaos, o.ChaosSeed = true, 8, s.Seed
		res, err := RunOracle(s.Subject(), o)
		record(s.Name, res, err)
	}

	path := filepath.Join("testdata", "oracle-results.golden")
	if os.Getenv("GOLDEN_REGEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (GOLDEN_REGEN=1 writes it)", err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("%s differs:\n--- got\n%s--- want\n%s", path, out.Bytes(), want)
	}
}
