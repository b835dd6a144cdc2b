package xrun

import (
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/millicode"
	"tnsr/internal/risc"
	"tnsr/internal/tns"
	"tnsr/internal/tnsasm"
)

// episodeWrites stores into two data words before the patched entry
// traps: word 0 (a global the interpreter also writes) and word 5000, a
// page the program never touches, so only the simulator's own page set
// can get it restored.
func episodeWrites() []uint32 {
	return []uint32{
		risc.EncImm(risc.ORI, risc.RegV, 0, 0x7777),
		risc.EncMem(risc.SH, risc.RegV, 0, 0),
		risc.EncMem(risc.SH, risc.RegV, 0, 2*5000),
	}
}

// TestMirrorRollbackRestoresEpisodeWrites drives the rollback paths of
// TestQuarantineAfterTrapStorm and TestProtectedStoreRollsBack with an
// episode that writes data memory before it traps. After each rollback
// the simulator holds the abandoned writes and its page set must name
// those pages; the next entry must restore them from the interpreter.
func TestMirrorRollbackRestoresEpisodeWrites(t *testing.T) {
	cases := []struct {
		name      string
		threshold int
		trap      []uint32
		rollbacks int
	}{
		{"unexpected-break", 0, []uint32{risc.EncBreak(7)}, DefaultQuarantineThreshold},
		{"protected-store", 1, []uint32{
			risc.EncImm(risc.LUI, risc.RegV, 0, int32(millicode.PtrArea>>16)),
			risc.EncMem(risc.SW, 0, risc.RegV, 0),
		}, 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checks := CheckMirror(t)
			r := selectiveAddup(t, append(episodeWrites(), c.trap...)...)
			r.QuarantineThreshold = c.threshold
			if err := r.Run(10_000_000); err != nil {
				t.Fatal(err)
			}
			if r.Console() != "15" {
				t.Errorf("console = %q, want 15", r.Console())
			}
			if len(r.RollbackLog) != c.rollbacks || checks.Rollbacks != c.rollbacks {
				t.Errorf("%d rollbacks (%d checked), want %d", len(r.RollbackLog), checks.Rollbacks, c.rollbacks)
			}
			if r.Int.Mem[5000] != 0 {
				t.Errorf("abandoned write reached the interpreter: word 5000 = %#04x", r.Int.Mem[5000])
			}
			if checks.FullCopies != 0 {
				t.Errorf("%d full-memory copies, want 0", checks.FullCopies)
			}
		})
	}
}

// TestMirrorAdoptInterpreter covers the dynamic-translation hand-off: the
// adopted machine's page set says nothing about the simulator, so
// AdoptInterpreter copies every page, once.
func TestMirrorAdoptInterpreter(t *testing.T) {
	checks := CheckMirror(t)
	ref := buildDyn(t, 30)
	mRef := interp.New(ref, nil)
	if err := mRef.Run(50_000_000); err != nil {
		t.Fatal(err)
	}
	res, err := RunDynamic(buildDyn(t, 30), nil, 5, codefile.LevelDefault, 1, 500_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Retranslations == 0 || res.Console != mRef.Console.String() {
		t.Fatalf("retranslations %d, console %q want %q", res.Retranslations, res.Console, mRef.Console.String())
	}
	if checks.FullCopies != res.Retranslations {
		t.Errorf("%d full copies for %d hand-offs", checks.FullCopies, res.Retranslations)
	}

	// A machine whose page set another runner already cleared still hands
	// over its whole memory.
	f := buildDyn(t, 30)
	m := interp.New(f, nil)
	for i := 0; i < 20_000; i++ {
		m.Step()
	}
	m.Dirty = tns.PageSet{}
	if err := core.Accelerate(f, core.Options{Level: codefile.LevelDefault}); err != nil {
		t.Fatal(err)
	}
	r, err := New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	before := r.MirroredPages
	r.AdoptInterpreter(m)
	if got := r.MirroredPages - before; got != tns.Pages {
		t.Errorf("AdoptInterpreter copied %d pages, want all %d", got, tns.Pages)
	}
	if err := r.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	if r.Console() != mRef.Console.String() {
		t.Errorf("adopted run console %q, want %q", r.Console(), mRef.Console.String())
	}
}

// TestMirrorDataImage: New copies only the pages interp.New wrote, which
// must include a data image far from the globals and the halt marker.
func TestMirrorDataImage(t *testing.T) {
	checks := CheckMirror(t)
	const src = `
GLOBALS 16
DATA 3000: 0x1234 0x5678
MAIN main
PROC main
  LOAD G+0
  EXIT 0
ENDPROC
`
	f := tnsasm.MustAssemble("img", src)
	if err := core.Accelerate(f, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	r, err := New(f, nil, risc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Sim.ReadHalf(2 * 3001); got != 0x5678 {
		t.Errorf("simulator word 3001 = %#04x, want the data image's 0x5678", got)
	}
	if r.MirroredPages != 2 {
		t.Errorf("New mirrored %d pages, want 2 (globals+marker, data image)", r.MirroredPages)
	}
	if checks.Syncs != 1 {
		t.Errorf("%d syncs checked, want New's one", checks.Syncs)
	}
}

// TestMirrorSwitchesCopyPages: a program that bounces between modes at
// every call copies a few pages per switch, never the whole data space.
func TestMirrorSwitchesCopyPages(t *testing.T) {
	checks := CheckMirror(t)
	r := selectiveAddup(t)
	if err := r.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if r.Console() != "15" {
		t.Errorf("console = %q, want 15", r.Console())
	}
	if r.Switches < 10 || checks.Syncs < r.Switches {
		t.Fatalf("%d switches, %d syncs checked: the program should bounce between modes",
			r.Switches, checks.Syncs)
	}
	if checks.FullCopies != 0 || checks.MaxPages > 2 {
		t.Errorf("a sync copied %d pages (%d full copies); the program touches one page",
			checks.MaxPages, checks.FullCopies)
	}
	if r.MirroredPages > 2*checks.Syncs {
		t.Errorf("%d pages mirrored over %d syncs", r.MirroredPages, checks.Syncs)
	}
}
