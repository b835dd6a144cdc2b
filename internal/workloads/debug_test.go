package workloads

import (
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/interp"
	"tnsr/internal/obs"
	"tnsr/internal/risc"
	"tnsr/internal/talc"
	"tnsr/internal/tns"
	"tnsr/internal/xrun"
)

func runTal(t *testing.T, src string) *interp.Machine {
	t.Helper()
	f, err := talc.Compile("dbg", src)
	if err != nil {
		t.Fatal(err)
	}
	m := interp.New(f, nil)
	if err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	if m.Trap != tns.TrapNone {
		t.Fatalf("trap %d at %d", m.Trap, m.TrapP)
	}
	return m
}

func TestDebugPushPop(t *testing.T) {
	m := runTal(t, `
INT stack[0:63];
INT sp;
INT out1; INT out2; INT out3;
PROC push(v); INT v;
BEGIN
  IF sp < 63 THEN
  BEGIN
    stack[sp] := v;
    sp := sp + 1;
  END;
END;
INT PROC pop;
BEGIN
  IF sp = 0 THEN RETURN -1;
  sp := sp - 1;
  RETURN stack[sp];
END;
PROC main MAIN;
BEGIN
  sp := 0;
  CALL push(11);
  CALL push(22);
  out1 := pop;
  out2 := pop;
  out3 := pop;
END;
`)
	t.Logf("out: %d %d %d sp=%d\n", int16(m.Mem[64+1]), int16(m.Mem[64+2]), int16(m.Mem[64+3]), int16(m.Mem[64]))
	if int16(m.Mem[65]) != 22 || int16(m.Mem[66]) != 11 || int16(m.Mem[67]) != -1 {
		t.Errorf("push/pop broken: %d %d %d", int16(m.Mem[65]), int16(m.Mem[66]), int16(m.Mem[67]))
	}
}

func TestDebugWhilePopLoop(t *testing.T) {
	m := runTal(t, `
INT stack[0:63];
INT sp;
INT count;
PROC push(v); INT v;
BEGIN
  stack[sp] := v;
  sp := sp + 1;
END;
INT PROC pop;
BEGIN
  IF sp = 0 THEN RETURN -1;
  sp := sp - 1;
  RETURN stack[sp];
END;
PROC main MAIN;
BEGIN
  INT a;
  sp := 0;
  count := 0;
  CALL push(5);
  a := pop;
  WHILE a >= 0 DO
  BEGIN
    count := count + 1;
    IF a > 0 THEN CALL push(a - 1);
    a := pop;
  END;
END;
`)
	if m.Mem[65] != 6 {
		t.Errorf("count = %d, want 6", int16(m.Mem[65]))
	}
}

func TestDebugModCall(t *testing.T) {
	m := runTal(t, `
INT out;
INT PROC size(f); INT f;
BEGIN
  IF f = 0 THEN RETURN 100;
  RETURN 20;
END;
PROC main MAIN;
BEGIN
  INT k;
  k := 12345;
  k := k \ size(0);
  out := k;
END;
`)
	if m.Mem[0] != 45 {
		t.Errorf("mod = %d, want 45", int16(m.Mem[0]))
	}
}

func TestDebugAxcelState(t *testing.T) {
	w := MustBuild("axcel", 1)
	m := interp.New(w.User, w.Lib)
	if err := m.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	// Globals: image@0 kindtab@384 leaders@768 bhash@864 nlead@960
	// stack@961 sp@1025 seed@1026 checksum@1027
	t.Logf("nlead=%d sp=%d seed=%d checksum=%d\n",
		int16(m.Mem[960]), int16(m.Mem[1025]), int16(m.Mem[1026]), int16(m.Mem[1027]))
	t.Logf("image[0..7]: ")
	for i := 0; i < 8; i++ {
		t.Logf("%d ", int16(m.Mem[i]))
	}
	t.Logf("\nkindtab[0..7]: ")
	for i := 0; i < 8; i++ {
		t.Logf("%d ", int16(m.Mem[384+i]))
	}
	t.Logf("\nleaders[0..7]: ")
	for i := 0; i < 8; i++ {
		t.Logf("%d ", int16(m.Mem[768+i]))
	}
	t.Log("")
}

func TestDebugCaseArmWithIf(t *testing.T) {
	m := runTal(t, `
INT leaders[0:9];
INT nlead;
INT kinds[0:7] := [0, 3, 1, 3, 2, 5, 3, 4];
PROC main MAIN;
BEGIN
  INT i; INT kind;
  nlead := 0;
  FOR i := 0 TO 7 DO
  BEGIN
    kind := kinds[i];
    CASE kind OF
    BEGIN
      nlead := nlead;                      ! alu
      nlead := nlead;                      ! load
      nlead := nlead;                      ! store
      BEGIN                                ! branch
        IF i < 100 THEN
        BEGIN
          IF nlead < 10 THEN
          BEGIN
            leaders[nlead] := i;
            nlead := nlead + 1;
          END;
        END;
      END;
      OTHERWISE nlead := nlead;
    END;
  END;
END;
`)
	t.Logf("nlead=%d leaders=%d,%d,%d\n", int16(m.Mem[10]), int16(m.Mem[0]), int16(m.Mem[1]), int16(m.Mem[2]))
	if m.Mem[10] != 3 {
		t.Errorf("nlead = %d, want 3", int16(m.Mem[10]))
	}
}

func TestDebugET1State(t *testing.T) {
	w := MustBuild("et1", 3)
	m := interp.New(w.User, w.Lib)
	if err := m.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	// Lib: accts@0 tellers@800 branches@960 locks@1000 journal@1125
	// jhead@1381 txseq@1382 workbuf@1383; user: seed@2048 checksum@2049 aborted@2050
	t.Logf("console=%q txseq=%d jhead=%d seed=%d aborted=%d\n",
		m.Console.String(), int16(m.Mem[1382]), int16(m.Mem[1381]),
		int16(m.Mem[2048]), int16(m.Mem[2050]))
	t.Logf("accts[0..9]: ")
	for i := 0; i < 10; i++ {
		t.Logf("%d ", int16(m.Mem[i]))
	}
	t.Logf("\nlocks[0..9]: ")
	for i := 0; i < 10; i++ {
		t.Logf("%d ", int16(m.Mem[1000+i]))
	}
	t.Logf("\njournal[0..11]: ")
	for i := 0; i < 12; i++ {
		t.Logf("%d ", int16(m.Mem[1125+i]))
	}
	t.Log("")
}

// TestDebugFallbacks logs every site where dhry16 and et1 escape to the
// interpreter at Default, from an observed run's escape sites.
func TestDebugFallbacks(t *testing.T) {
	for _, name := range []string{"dhry16", "et1"} {
		w := MustBuild(name, 2)
		user, lib, err := core.AcceleratePair(w.User, w.Lib,
			core.Options{Level: codefile.LevelDefault}, core.Accelerate)
		if err != nil {
			t.Fatal(err)
		}
		r, err := xrun.New(user, lib, risc.Config{})
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.NewRecorder()
		r.Observe(rec)
		if err := r.Run(100_000_000); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: interludes=%d frac=%.1f%%\n", name, r.Interludes, 100*r.InterpFraction())
		for _, s := range r.Report(rec).Sites {
			cf, space := user, interp.SpaceUser
			if s.Space == "lib" {
				cf, space = lib, interp.SpaceLib
			}
			pname := "?"
			if pi := r.ProcAt(space, s.Addr); pi >= 0 {
				pname = cf.Procs[pi].Name
			}
			t.Logf("  %s %s@%d (%s) x%d: %s\n", s.Reason, s.Space, s.Addr, pname, s.Count,
				tns.Disassemble(s.Addr, cf.Code[s.Addr]))
		}
	}
}

func TestDebugReentry(t *testing.T) {
	w := MustBuild("et1", 2)
	user, lib, err := core.AcceleratePair(w.User, w.Lib,
		core.Options{Level: codefile.LevelDefault}, core.Accelerate)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := xrun.New(user, lib, risc.Config{})
	// Manually step the interpreter like runInterp does, logging transfers.
	m := r.Int
	for i := 0; i < 4000 && !m.Halted; i++ {
		kind := m.Step()
		if kind != interp.TransferNone {
			acc := user.Accel
			space := "user"
			if m.Space == interp.SpaceLib {
				acc, space = lib.Accel, "lib"
			}
			idx, re, ok := acc.PMap.Lookup(m.P)
			t.Logf("transfer kind=%d to %s@%d: mapped=%v regexact=%v idx=%d\n",
				kind, space, m.P, ok, re, idx)
			if i > 200 {
				break
			}
		}
	}
}
