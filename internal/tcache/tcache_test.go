package tcache

import (
	"bytes"
	"os"
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/pgo"
	"tnsr/internal/store"
	"tnsr/internal/workloads"
)

func mustCache(t testing.TB) *Cache {
	t.Helper()
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func serialize(t testing.TB, f *codefile.File) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func buildUser(t testing.TB) *codefile.File {
	t.Helper()
	w, err := workloads.Build("tal", 1)
	if err != nil {
		t.Fatal(err)
	}
	return w.User
}

// TestCacheHitByteIdentical is the acceptance pin: a cache-hit accelerate
// produces a byte-identical accelerated codefile to a cold translation.
func TestCacheHitByteIdentical(t *testing.T) {
	c := mustCache(t)
	opts := core.Options{Level: codefile.LevelDefault}

	cold := buildUser(t)
	if err := core.Accelerate(cold, opts); err != nil {
		t.Fatal(err)
	}
	coldBytes := serialize(t, cold)

	miss := buildUser(t)
	hit1, err := c.Accelerate(miss, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit1 {
		t.Fatal("first cache access should miss")
	}
	if !bytes.Equal(serialize(t, miss), coldBytes) {
		t.Error("cache-miss translation differs from direct core.Accelerate")
	}

	warm := buildUser(t)
	hit2, err := c.Accelerate(warm, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !hit2 {
		t.Fatal("second cache access should hit")
	}
	if !bytes.Equal(serialize(t, warm), coldBytes) {
		t.Error("cache-hit accelerated codefile is not byte-identical to cold translation")
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Rejects != 0 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 0 rejects", s)
	}
}

// TestCacheKeySensitivity: the key must move with anything that moves the
// output — the input code image, the level, the attached profile — and
// stay put for knobs that do not (workers).
func TestCacheKeySensitivity(t *testing.T) {
	f := buildUser(t)
	fp := f.Fingerprint()
	base, err := core.Options{Level: codefile.LevelDefault}.TransKey(fp)
	if err != nil {
		t.Fatal(err)
	}

	if k, _ := (core.Options{Level: codefile.LevelFast}).TransKey(fp); k == base {
		t.Error("level change did not move the key")
	}
	if k, _ := (core.Options{Level: codefile.LevelDefault}).TransKey(fp + 1); k == base {
		t.Error("fingerprint change did not move the key")
	}
	if k, _ := (core.Options{Level: codefile.LevelDefault, Workers: 7}).TransKey(fp); k != base {
		t.Error("worker count moved the key (output is worker-independent)")
	}
	if k, _ := (core.Options{Level: codefile.LevelDefault,
		Hints: core.Hints{ReturnValSize: map[string]int8{"p": 2}}}).TransKey(fp); k == base {
		t.Error("hints did not move the key")
	}

	prof := &pgo.Profile{Schema: pgo.Schema, Runs: 1, Spaces: []pgo.SpaceProfile{{
		Space: "user",
		Procs: []pgo.ProcWeight{{Name: "main", Calls: 3}},
	}}}
	withProf, err := core.Options{Level: codefile.LevelDefault, Profile: prof}.TransKey(fp)
	if err != nil {
		t.Fatal(err)
	}
	if withProf == base {
		t.Error("attached profile did not move the key")
	}
	prof2 := &pgo.Profile{Schema: pgo.Schema, Runs: 1, Spaces: []pgo.SpaceProfile{{
		Space: "user",
		Procs: []pgo.ProcWeight{{Name: "main", Calls: 4}},
	}}}
	if k, _ := (core.Options{Level: codefile.LevelDefault, Profile: prof2}).TransKey(fp); k == withProf {
		t.Error("profile content change did not move the key")
	}
}

// TestCacheCorruptEntryFallsBack: a damaged cache entry must never surface
// — the load gates reject it, the entry is replaced, and the translation
// output is still byte-identical to cold.
func TestCacheCorruptEntryFallsBack(t *testing.T) {
	c := mustCache(t)
	opts := core.Options{Level: codefile.LevelDefault}

	first := buildUser(t)
	if _, err := c.Accelerate(first, opts); err != nil {
		t.Fatal(err)
	}
	want := serialize(t, first)

	key, err := opts.TransKey(buildUser(t).Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	path := c.st.(*store.Dir).Path(key + entrySuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("cache entry not written: %v", err)
	}
	data[len(data)/2] ^= 0x10 // checksum breakage somewhere in the middle
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}

	again := buildUser(t)
	hit, err := c.Accelerate(again, opts)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Error("corrupt entry served as a hit")
	}
	if c.Stats().Rejects != 1 {
		t.Errorf("rejects = %d, want 1", c.Stats().Rejects)
	}
	if !bytes.Equal(serialize(t, again), want) {
		t.Error("fallback translation differs from cold output")
	}
	// The replaced entry must now serve hits again.
	if hit, err := c.Accelerate(buildUser(t), opts); err != nil || !hit {
		t.Errorf("replaced entry did not hit (hit=%v err=%v)", hit, err)
	}

	// Truncation is rejected the same way.
	if err := os.WriteFile(path, data[:16], 0o666); err != nil {
		t.Fatal(err)
	}
	if hit, err := c.Accelerate(buildUser(t), opts); err != nil || hit {
		t.Errorf("truncated entry should miss cleanly (hit=%v err=%v)", hit, err)
	}
}

// TestCacheDistinguishesProfiles: the same codefile under two different
// profiles occupies two entries, each hitting only for its own profile.
func TestCacheDistinguishesProfiles(t *testing.T) {
	c := mustCache(t)
	f := buildUser(t)
	fpHex := codefileFingerprintHex(f)
	prof := &pgo.Profile{Schema: pgo.Schema, Runs: 1, Spaces: []pgo.SpaceProfile{{
		Space: "user", Fingerprint: fpHex,
		Procs: []pgo.ProcWeight{{Name: "main", Calls: 3, InterpInstrs: 50}},
	}}}

	if hit, err := c.Accelerate(buildUser(t), core.Options{Level: codefile.LevelDefault}); err != nil || hit {
		t.Fatalf("unprofiled first access: hit=%v err=%v", hit, err)
	}
	if hit, err := c.Accelerate(buildUser(t),
		core.Options{Level: codefile.LevelDefault, Profile: prof}); err != nil || hit {
		t.Fatalf("profiled first access: hit=%v err=%v", hit, err)
	}
	if hit, err := c.Accelerate(buildUser(t),
		core.Options{Level: codefile.LevelDefault, Profile: prof}); err != nil || !hit {
		t.Fatalf("profiled second access: hit=%v err=%v", hit, err)
	}
	if s := c.Stats(); s.Misses != 2 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 2 misses / 1 hit", s)
	}
}

// TestCacheLRUEviction: with a size cap, churning distinct keys through the
// cache keeps the stored total bounded, evicts least-recently-used entries
// first (a hit protects its entry), and entries surviving the churn still
// pass the full verify gate — including one damaged on disk mid-churn,
// which must reject and retranslate, never serve.
func TestCacheLRUEviction(t *testing.T) {
	c := mustCache(t)
	base := buildUser(t)
	if err := core.Accelerate(base, core.Options{Level: codefile.LevelDefault}); err != nil {
		t.Fatal(err)
	}
	entry := serialize(t, base)
	// Cap at ~3 entries so a 6-key churn must evict.
	c.SetMaxBytes(3*int64(len(entry)) + int64(len(entry))/2)

	// Distinct keys for one codefile: vary an output-affecting knob.
	optsFor := func(i int) core.Options {
		return core.Options{Level: codefile.LevelDefault,
			Hints: core.Hints{ReturnValSize: map[string]int8{"nonexistent": int8(i)}}}
	}
	for i := 0; i < 6; i++ {
		if hit, err := c.Accelerate(buildUser(t), optsFor(i)); err != nil || hit {
			t.Fatalf("churn %d: hit=%v err=%v", i, hit, err)
		}
		// Re-hit key 0 early so recency, not insertion order, decides.
		if i == 2 {
			if hit, err := c.Accelerate(buildUser(t), optsFor(0)); err != nil || !hit {
				t.Fatalf("protective re-hit: hit=%v err=%v", hit, err)
			}
		}
	}
	if size, n := c.SizeBytes(); size > c.maxBytes || n > 3 {
		t.Fatalf("cap not enforced: %d bytes in %d entries (cap %d)", size, n, c.maxBytes)
	}
	if c.Stats().Evictions == 0 {
		t.Fatal("no evictions recorded under churn")
	}

	// An entry that survived eviction churn still serves a verified hit…
	if hit, err := c.Accelerate(buildUser(t), optsFor(5)); err != nil || !hit {
		t.Fatalf("survivor should hit: hit=%v err=%v", hit, err)
	}
	// …and a survivor damaged on disk is still caught by the gate.
	key, err := optsFor(5).TransKey(buildUser(t).Fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	path := c.st.(*store.Dir).Path(key + entrySuffix)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x40
	if err := os.WriteFile(path, data, 0o666); err != nil {
		t.Fatal(err)
	}
	rejBefore := c.Stats().Rejects
	if hit, err := c.Accelerate(buildUser(t), optsFor(5)); err != nil || hit {
		t.Fatalf("damaged survivor must miss cleanly: hit=%v err=%v", hit, err)
	}
	if c.Stats().Rejects != rejBefore+1 {
		t.Fatalf("damaged survivor not counted as reject")
	}
	// An evicted key simply misses and repopulates.
	if hit, err := c.Accelerate(buildUser(t), optsFor(1)); err != nil || hit {
		t.Fatalf("evicted key should miss: hit=%v err=%v", hit, err)
	}
}

func codefileFingerprintHex(f *codefile.File) string {
	const hexdigits = "0123456789abcdef"
	fp := f.Fingerprint()
	out := make([]byte, 16)
	for i := 15; i >= 0; i-- {
		out[i] = hexdigits[fp&0xF]
		fp >>= 4
	}
	return string(out)
}

// BenchmarkAccelerateCold prices a from-scratch translation of the tal
// workload; BenchmarkAccelerateCached prices the same call served from the
// cache. The acceptance criterion is that the hit path is measurably
// faster.
func BenchmarkAccelerateCold(b *testing.B) {
	w := workloads.MustBuild("tal", 1)
	opts := core.Options{Level: codefile.LevelDefault}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := w.User.Pristine()
		if err := core.Accelerate(f, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAccelerateCached(b *testing.B) {
	c := mustCache(b)
	w := workloads.MustBuild("tal", 1)
	opts := core.Options{Level: codefile.LevelDefault}
	if _, err := c.Accelerate(w.User.Pristine(), opts); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := w.User.Pristine()
		hit, err := c.Accelerate(f, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !hit {
			b.Fatal("expected a cache hit")
		}
	}
}
