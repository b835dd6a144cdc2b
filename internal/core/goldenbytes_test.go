package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"tnsr/internal/backend"
	"tnsr/internal/backend/mips"
	"tnsr/internal/backend/ob0"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/pgo"
	"tnsr/internal/workloads"
)

// TestMIPSBackendByteStable pins the default (MIPS) target's output: the
// acceleration-section content hash for every workload at every level must
// match the golden hashes captured before the backend-interface refactor.
// This is the proof that extracting the backend seam was a no-op for the
// default target — identical RISC words, entries, ExpectedRP, PMap,
// statistics and FallbackWhy, bit for bit.
//
// Regenerate with GOLDEN_REGEN=1 (only legitimate when an intentional
// codegen change lands; the refactor itself must not need it).
func TestMIPSBackendByteStable(t *testing.T) {
	goldenPath := filepath.Join("testdata", "mips_golden.json")
	got := map[string]string{}
	for _, name := range workloads.Names {
		w, err := workloads.Build(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, lvl := range []codefile.AccelLevel{
			codefile.LevelStmtDebug, codefile.LevelDefault, codefile.LevelFast,
		} {
			user, lib, err := core.AcceleratePair(w.User, w.Lib,
				core.Options{Level: lvl}, core.Accelerate)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, lvl, err)
			}
			got[fmt.Sprintf("%s/%v/user", name, lvl)] = accelContentHash(user.Accel)
			if lib != nil {
				got[fmt.Sprintf("%s/%v/lib", name, lvl)] = accelContentHash(lib.Accel)
			}
		}
	}

	if os.Getenv("GOLDEN_REGEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		data, _ := json.MarshalIndent(got, "", "  ")
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("regenerated %s (%d entries)", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden file (run with GOLDEN_REGEN=1 on the "+
			"pre-refactor tree): %v", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for key, wh := range want {
		if got[key] != wh {
			t.Errorf("%s: accel content hash changed: got %s want %s",
				key, got[key], wh)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: not in golden file (stale goldens?)", key)
		}
	}
}

// TestTransKeyGolden pins TransKey values across commits: the five paper
// workloads at every level on both backends, for the options
// core.AcceleratePair translates the user file and, where the workload has
// a library, the library under. Keys address the xlate store and the
// retranslation cache, so a key that moves silently orphans every stored
// translation; TestCacheKeySensitivity compares keys within one build
// only. Regenerate with GOLDEN_REGEN=1 (only legitimate when the key is
// meant to move).
func TestTransKeyGolden(t *testing.T) {
	goldenPath := filepath.Join("testdata", "transkey_golden.json")
	got := map[string]string{}
	for _, name := range workloads.Names {
		w := workloads.MustBuild(name, 2)
		for _, lvl := range []codefile.AccelLevel{
			codefile.LevelStmtDebug, codefile.LevelDefault, codefile.LevelFast,
		} {
			for _, be := range []backend.Backend{mips.Default, ob0.Default} {
				key := fmt.Sprintf("%s/%v/%s/", name, lvl, be.Name())
				// Record each translation's key instead of translating.
				keyOf := func(f *codefile.File, opts core.Options) (err error) {
					got[key+pgo.SpaceName(opts.Space)], err = opts.TransKey(f.Fingerprint())
					return err
				}
				if _, _, err := core.AcceleratePair(w.User, w.Lib,
					core.Options{Level: lvl, Backend: be}, keyOf); err != nil {
					t.Fatalf("%s: %v", key, err)
				}
			}
		}
	}
	if os.Getenv("GOLDEN_REGEN") == "1" {
		data, _ := json.MarshalIndent(got, "", "  ")
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (GOLDEN_REGEN=1 writes it)", err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		for key, k := range got {
			if want[key] != k {
				t.Errorf("%s: TransKey %s, golden %s", key, k, want[key])
			}
		}
		t.Errorf("got %d keys, golden %d", len(got), len(want))
	}
}

// accelContentHash hashes every output-bearing field of an acceleration
// section in a canonical order. Deliberately independent of the codefile
// serialization format, so a format-version bump (e.g. adding the backend
// tag) does not disturb the refactor-is-a-no-op proof.
func accelContentHash(a *codefile.AccelSection) string {
	h := sha256.New()
	be := func(v any) { binary.Write(h, binary.BigEndian, v) }
	fmt.Fprintf(h, "level=%d\n", a.Level)
	fmt.Fprintf(h, "risc=%d\n", len(a.RISC))
	be(a.RISC)
	fmt.Fprintf(h, "entries=%d\n", len(a.Entries))
	be(a.Entries)
	fmt.Fprintf(h, "exprp=%d\n", len(a.ExpectedRP))
	h.Write(a.ExpectedRP)
	pm := a.PMap.Pack()
	fmt.Fprintf(h, "pmap=%d\n", len(pm))
	h.Write(pm)
	fmt.Fprintf(h, "stats=%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
		a.Stats.TNSInstrs, a.Stats.TableWords, a.Stats.RISCInstrs,
		a.Stats.RPChecks, a.Stats.GuessedProcs, a.Stats.PuzzlePoints,
		a.Stats.WeldedStmts, a.Stats.FilledSlots, a.Stats.ElidedFlagOps)
	addrs := make([]uint16, 0, len(a.FallbackWhy))
	for addr := range a.FallbackWhy {
		addrs = append(addrs, addr)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	fmt.Fprintf(h, "why=%d\n", len(addrs))
	for _, addr := range addrs {
		fmt.Fprintf(h, "%d=%d\n", addr, a.FallbackWhy[addr])
	}
	return hex.EncodeToString(h.Sum(nil))
}
