package xrun

import (
	"strings"
	"testing"

	"tnsr/internal/backend"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/millicode"
	"tnsr/internal/obs"
	"tnsr/internal/risc"
	"tnsr/internal/tns"
	"tnsr/internal/tnsasm"
	"tnsr/internal/workloads"
)

// TestDegradedRunsInterpreted is the graceful-degradation contract: a
// codefile whose acceleration section fails structural verification must
// still run — fully interpreted, with correct output — and the degradation
// must be visible in the report in both text and JSON.
func TestDegradedRunsInterpreted(t *testing.T) {
	f := tnsasm.MustAssemble("mix", mixProg)
	if err := core.Accelerate(f, core.Options{Level: codefile.LevelDefault}); err != nil {
		t.Fatal(err)
	}
	// Structural damage with no checksum to catch it: one EMap entry too
	// few. Verify must reject it; New must degrade rather than fail.
	f.Accel.Entries = f.Accel.Entries[:len(f.Accel.Entries)-1]

	r, err := New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded {
		t.Fatal("runner did not degrade on a corrupt acceleration section")
	}
	if !strings.Contains(r.DegradedReason, "emap") {
		t.Errorf("DegradedReason = %q, want mention of the emap section", r.DegradedReason)
	}
	rec := obs.NewRecorder()
	r.Observe(rec)
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if r.Console() != "15" {
		t.Errorf("degraded console = %q, want 15", r.Console())
	}
	if r.Sim.Instrs != 0 {
		t.Errorf("degraded run executed %d RISC instructions, want 0", r.Sim.Instrs)
	}

	rep := r.Report(rec)
	if !rep.Degraded || rep.DegradedReason == "" {
		t.Error("report does not carry the degradation")
	}
	if err := obs.Validate(rep); err != nil {
		t.Errorf("degraded report fails validation: %v", err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := obs.ParseReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Degraded || back.DegradedReason != rep.DegradedReason {
		t.Error("degradation lost in the JSON round trip")
	}
	var text strings.Builder
	rep.WriteText(&text, 0)
	if !strings.Contains(text.String(), "DEGRADED") {
		t.Error("text report does not surface the degradation")
	}
	// The refused initial entry is classified as a quarantine escape.
	found := false
	for _, e := range rep.Escapes {
		if e.Reason == "quarantined" && e.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Error("no quarantined escape recorded for the degraded entry refusal")
	}
}

// selectiveAddup translates only the addup procedure, so every entry into
// RISC code goes through the interpreter's entry check and is attributed to
// addup — the precise setup the quarantine tests need. Any damage words
// are patched over addup's entry (patchEntry) before the image is built.
func selectiveAddup(t *testing.T, damage ...uint32) *Runner {
	t.Helper()
	f := tnsasm.MustAssemble("mix", mixProg)
	opts := core.Options{
		Level:       codefile.LevelDefault,
		SelectProcs: map[string]bool{"addup": true},
	}
	if err := core.Accelerate(f, opts); err != nil {
		t.Fatal(err)
	}
	if len(damage) > 0 {
		patchEntry(t, f, "addup", damage...)
	}
	r, err := New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// patchEntry overwrites the first translated instruction of the named
// procedure's fragment (the register-exact point the runner enters through)
// with the given RISC words, in the user codefile's acceleration section,
// simulating damage to translated code. Patch before building an image:
// the image decodes the section once.
func patchEntry(t *testing.T, f *codefile.File, proc string, words ...uint32) {
	t.Helper()
	i := f.ProcByName(proc)
	if i < 0 {
		t.Fatalf("no procedure %q", proc)
	}
	idx, _, ok := f.Accel.PMap.Lookup(f.Procs[i].Entry)
	if !ok {
		t.Fatalf("%q entry not mapped", proc)
	}
	copy(f.Accel.RISC[idx-millicode.UserCodeBase:], words)
}

// TestQuarantineAfterTrapStorm: a fragment that breaks with an unexpected
// code on every entry is rolled back each time and, at the threshold, its
// procedure is demoted to interpreter-only — the run completes with correct
// output and the report names the quarantined procedure.
func TestQuarantineAfterTrapStorm(t *testing.T) {
	r := selectiveAddup(t, risc.EncBreak(7)) // no such break code exists
	rec := obs.NewRecorder()
	r.Observe(rec)
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if r.Console() != "15" {
		t.Errorf("console = %q, want 15", r.Console())
	}
	rep := r.Report(rec)
	if len(rep.Quarantined) != 1 {
		t.Fatalf("quarantined = %+v, want exactly addup", rep.Quarantined)
	}
	q := rep.Quarantined[0]
	if q.Name != "addup" || q.Space != "user" || q.Traps != int64(DefaultQuarantineThreshold) {
		t.Errorf("quarantined %+v, want addup/user with %d traps", q, DefaultQuarantineThreshold)
	}
	if len(r.RollbackLog) == 0 || !strings.Contains(r.RollbackLog[0], "addup") {
		t.Errorf("rollback log = %v, want entries attributed to addup", r.RollbackLog)
	}
	if err := obs.Validate(rep); err != nil {
		t.Errorf("report fails validation: %v", err)
	}
	var n int64
	for _, e := range rep.Escapes {
		if e.Reason == "quarantined" {
			n = e.Count
		}
	}
	if n < int64(DefaultQuarantineThreshold) {
		t.Errorf("quarantined escapes = %d, want >= %d", n, DefaultQuarantineThreshold)
	}
}

// TestProtectedStoreRollsBack: damaged translated code that stores into the
// fenced runtime-table region raises TrapProtected; the episode is rolled
// back and, with a threshold of 1, the procedure is quarantined at once.
func TestProtectedStoreRollsBack(t *testing.T) {
	r := selectiveAddup(t,
		risc.EncImm(risc.LUI, risc.RegV, 0, int32(millicode.PtrArea>>16)),
		risc.EncMem(risc.SW, 0, risc.RegV, 0))
	r.QuarantineThreshold = 1
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if r.Console() != "15" {
		t.Errorf("console = %q, want 15", r.Console())
	}
	if len(r.RollbackLog) != 1 ||
		!strings.Contains(r.RollbackLog[0], "risc trap 5") {
		t.Errorf("rollback log = %v, want one TrapProtected rollback", r.RollbackLog)
	}
}

// TestTrapAfterOutputHalts covers the one case rollback must refuse: the
// episode already produced console output, so re-running it would duplicate
// the output. The run halts with an address trap, classified EscapeTrap.
func TestTrapAfterOutputHalts(t *testing.T) {
	src := `
GLOBALS 4
MAIN main
PROC main
  LDI 7
  SVC 2
  LDI 0
  STOR G+0
  EXIT 0
ENDPROC
`
	f := tnsasm.MustAssemble("out", src)
	if err := core.Accelerate(f, core.Options{Level: codefile.LevelStmtDebug}); err != nil {
		t.Fatal(err)
	}
	// Patch the words right after the translated SVC — so the episode
	// prints first, then stores into the protected region.
	syscallAt := -1
	for i, w := range f.Accel.RISC {
		if risc.Decode(w).Op == risc.SYSCALL {
			syscallAt = i
			break
		}
	}
	if syscallAt < 0 {
		t.Fatal("no SYSCALL in the translated fragment")
	}
	copy(f.Accel.RISC[syscallAt+1:], []uint32{
		risc.EncImm(risc.LUI, risc.RegV, 0, int32(millicode.PtrArea>>16)),
		risc.EncMem(risc.SW, 0, risc.RegV, 0),
	})
	r, err := New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	r.Observe(rec)
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !r.Halted || r.Trap != tns.TrapAddress {
		t.Fatalf("halted=%v trap=%d, want an address trap halt", r.Halted, r.Trap)
	}
	if r.Console() != "7" {
		t.Errorf("console = %q, want the pre-trap output preserved", r.Console())
	}
	if len(r.RollbackLog) != 0 {
		t.Errorf("rollback log = %v, want none (output made rollback unsound)", r.RollbackLog)
	}
	rep := r.Report(rec)
	var traps int64
	for _, e := range rep.Escapes {
		if e.Reason == "trap" {
			traps = e.Count
		}
	}
	if traps == 0 {
		t.Error("no trap escape recorded")
	}
}

// TestTrapEscapeClassified: a genuine TNS trap raised by translated code
// (divide by zero, reported through the BREAK protocol) is classified
// EscapeTrap in the observation record.
func TestTrapEscapeClassified(t *testing.T) {
	src := `
GLOBALS 4
MAIN main
PROC main
  LDI 1
  LDI 0
  DIV
  STOR G+0
  EXIT 0
ENDPROC
`
	f := tnsasm.MustAssemble("div", src)
	if err := core.Accelerate(f, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	r, err := New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	r.Observe(rec)
	if err := r.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if r.Trap != tns.TrapDivZero {
		t.Fatalf("trap = %d, want divide-by-zero", r.Trap)
	}
	rep := r.Report(rec)
	var traps int64
	for _, e := range rep.Escapes {
		if e.Reason == "trap" {
			traps += e.Count
		}
	}
	if traps != 1 {
		t.Errorf("trap escapes = %d, want 1", traps)
	}
	if err := obs.Validate(rep); err != nil {
		t.Errorf("report fails validation: %v", err)
	}
}

// TestBreakpointEscapeClassified: a breakpoint hit in RISC mode is
// classified EscapeBreakpoint.
func TestBreakpointEscapeClassified(t *testing.T) {
	r := accelerated(t, codefile.LevelDefault)
	rec := obs.NewRecorder()
	r.Observe(rec)
	f := r.User
	i := f.ProcByName("addup")
	idx, _, ok := f.Accel.PMap.Lookup(f.Procs[i].Entry)
	if !ok {
		t.Fatal("addup entry not mapped")
	}
	r.Sim.Breakpoints = map[uint32]bool{uint32(idx): true}
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !r.BPHit {
		t.Fatal("breakpoint did not hit")
	}
	rep := r.Report(rec)
	var bps int64
	for _, e := range rep.Escapes {
		if e.Reason == "breakpoint" {
			bps += e.Count
		}
	}
	if bps == 0 {
		t.Error("no breakpoint escape recorded")
	}
}

// et1Accelerated builds the et1 user and library codefiles, translated
// for the named backends, and the pure interpreter's console for them.
func et1Accelerated(t *testing.T, userBE, libBE string) (user, lib *codefile.File, want string) {
	t.Helper()
	w := workloads.MustBuild("et1", 2)
	m := interp.New(w.User, w.Lib)
	if err := m.Run(100_000_000); err != nil || !m.Halted {
		t.Fatalf("reference run: halted=%v err=%v", m.Halted, err)
	}
	ube, _ := backend.ByName(userBE)
	lbe, _ := backend.ByName(libBE)
	perSpace := func(f *codefile.File, opts core.Options) error {
		opts.Backend = ube
		if opts.Space == 1 {
			opts.Backend = lbe
		}
		return core.Accelerate(f, opts)
	}
	user, lib, err := core.AcceleratePair(w.User, w.Lib,
		core.Options{Level: codefile.LevelDefault}, perSpace)
	if err != nil {
		t.Fatal(err)
	}
	return user, lib, m.Console.String()
}

// TestUnknownBackendsDegradeInOrder: with both sections stamped for an
// unregistered target, New drops both and reports them user first, the
// same way on every call; both spaces then run interpreted.
func TestUnknownBackendsDegradeInOrder(t *testing.T) {
	user, lib, want := et1Accelerated(t, "mips", "mips")
	user.Accel.BackendID, lib.Accel.BackendID = 9, 9
	var first string
	for i := 0; i < 100; i++ {
		r, err := New(user, lib, risc.Config{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = r.DegradedReason
			if !strings.HasPrefix(first, "user: ") || !strings.Contains(first, "; lib: ") {
				t.Fatalf("DegradedReason = %q, want the user section then the library", first)
			}
			if err := r.Run(100_000_000); err != nil {
				t.Fatal(err)
			}
			if r.Console() != want || r.Sim.Instrs != 0 {
				t.Errorf("console %q after %d RISC instructions, want the interpreter's %q and none",
					r.Console(), r.Sim.Instrs, want)
			}
		} else if r.DegradedReason != first {
			t.Fatalf("call %d: DegradedReason = %q, first call gave %q", i, r.DegradedReason, first)
		}
	}
}

// TestBackendMismatchDropsLibrary: one simulator drives both spaces, so a
// library translated for another target than the user is dropped and
// runs interpreted while the user keeps its translation.
func TestBackendMismatchDropsLibrary(t *testing.T) {
	user, lib, want := et1Accelerated(t, "mips", "ob0")
	r, err := New(user, lib, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(r.DegradedReason, "lib: ") || !strings.Contains(r.DegradedReason, "backend mismatch") {
		t.Errorf("DegradedReason = %q, want the library dropped for a backend mismatch", r.DegradedReason)
	}
	if r.LoadedAccel(interp.SpaceLib) != nil || r.LoadedAccel(interp.SpaceUser) == nil {
		t.Error("want the user section loaded and the library's dropped")
	}
	if r.Backend().Name() != "mips" {
		t.Errorf("backend %s, want the user's mips", r.Backend().Name())
	}
	if err := r.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	if r.Console() != want {
		t.Errorf("console %q, want the interpreter's %q", r.Console(), want)
	}
	if r.Sim.Instrs == 0 {
		t.Error("the user section never ran translated")
	}
}

// TestArmBreakDegradedSection: ArmBreak arms the RISC side only for the
// section the runner loaded. A user section that failed Verify has a PMap
// that still maps the address, but that code was never loaded: the RISC
// side stays unarmed and the breakpoint hits under interpretation.
func TestArmBreakDegradedSection(t *testing.T) {
	f := tnsasm.MustAssemble("mix", mixProg)
	if err := core.Accelerate(f, core.Options{Level: codefile.LevelDefault}); err != nil {
		t.Fatal(err)
	}
	addr := f.Procs[f.ProcByName("addup")].Entry
	if _, _, ok := f.Accel.PMap.Lookup(addr); !ok {
		t.Fatal("addup entry not mapped")
	}
	healthy, err := New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !healthy.ArmBreak(0, addr) {
		t.Fatal("ArmBreak on a loaded section's mapped point returned false")
	}

	f.Accel.Entries = f.Accel.Entries[:len(f.Accel.Entries)-1] // fails Verify
	r, err := New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Degraded {
		t.Fatal("runner did not degrade")
	}
	if r.ArmBreak(0, addr) {
		t.Error("ArmBreak reported the RISC side armed for a section that was never loaded")
	}
	if len(r.Sim.Breakpoints) != 0 {
		t.Errorf("RISC breakpoints armed: %v", r.Sim.Breakpoints)
	}
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if !r.BPHit || r.BPAddr != addr || r.InRISCMode() {
		t.Errorf("hit=%v at %d (risc=%v), want an interpreted hit at %d",
			r.BPHit, r.BPAddr, r.InRISCMode(), addr)
	}
}
