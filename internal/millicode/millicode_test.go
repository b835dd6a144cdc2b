package millicode

import (
	"testing"

	"tnsr/internal/backend"
	"tnsr/internal/risc"
)

func TestBuild(t *testing.T) {
	code, labels := Build()
	if len(code) == 0 {
		t.Fatal("no millicode")
	}
	for _, l := range []string{LExit, LXcal, LScal, LMovb, LMovw, LCmpb, LScnb} {
		if _, ok := labels[l]; !ok {
			t.Errorf("missing label %s", l)
		}
	}
}

// callRoutine runs one jal-linked millicode routine with the given $t0..$t2
// arguments and returns the sim.
func callRoutine(t *testing.T, label string, t0, t1, t2 uint32,
	setup func(s *risc.Sim)) *risc.Sim {
	t.Helper()
	code, labels := Build()
	// Driver: jal routine; break 99.
	driver := []uint32{
		risc.EncJ(risc.JAL, labels[label]),
		risc.NOP,
		risc.EncBreak(99),
	}
	base := uint32(len(code))
	// Relocate the driver after the millicode? JAL targets are absolute, so
	// append the driver and start there.
	all := append(append([]uint32{}, code...), driver...)
	s := risc.NewSim(risc.NewProgram(backend.FlatCode(all), risc.Config{}), make([]byte, MemBytes))
	s.Reg[risc.RegT0] = t0
	s.Reg[risc.RegT0+1] = t1
	s.Reg[risc.RegT0+2] = t2
	if setup != nil {
		setup(s)
	}
	s.ResumeAt(base)
	if err := s.Run(100000); err != nil {
		t.Fatal(err)
	}
	if s.BreakCode != 99 {
		t.Fatalf("unexpected break %d (trap %d at %d)", s.BreakCode, s.Trap, s.TrapPC)
	}
	return s
}

func TestMOVBForward(t *testing.T) {
	s := callRoutine(t, LMovb, 0x100, 0x200, 5, func(s *risc.Sim) {
		copy(s.Mem[0x100:], []byte("hello"))
	})
	if string(s.Mem[0x200:0x205]) != "hello" {
		t.Errorf("moved: %q", s.Mem[0x200:0x205])
	}
}

func TestMOVBSmear(t *testing.T) {
	s := callRoutine(t, LMovb, 0x100, 0x101, 3, func(s *risc.Sim) {
		copy(s.Mem[0x100:], []byte("ABCD"))
	})
	if string(s.Mem[0x100:0x104]) != "AAAA" {
		t.Errorf("smear: %q", s.Mem[0x100:0x104])
	}
}

func TestMOVBReverse(t *testing.T) {
	// Negative count: right-to-left, overlap-safe.
	negThree := uint32(0x10000 - 3)
	s := callRoutine(t, LMovb, 0x100, 0x101, negThree&0xFFFF, func(s *risc.Sim) {
		copy(s.Mem[0x100:], []byte("ABCD"))
	})
	if string(s.Mem[0x100:0x104]) != "AABC" {
		t.Errorf("reverse: %q", s.Mem[0x100:0x104])
	}
}

func TestMOVBZero(t *testing.T) {
	s := callRoutine(t, LMovb, 0x100, 0x200, 0, func(s *risc.Sim) {
		copy(s.Mem[0x100:], []byte("x"))
	})
	if s.Mem[0x200] != 0 {
		t.Error("zero count moved data")
	}
}

func TestMOVW(t *testing.T) {
	// Word addresses 0x90 -> 0x98, two halfwords.
	s := callRoutine(t, LMovw, 0x90, 0x98, 2, func(s *risc.Sim) {
		s.WriteHalf(0x120, 0xAABB)
		s.WriteHalf(0x122, 0xCCDD)
	})
	if s.ReadHalf(0x130) != 0xAABB || s.ReadHalf(0x132) != 0xCCDD {
		t.Errorf("movw: %04x %04x", s.ReadHalf(0x130), s.ReadHalf(0x132))
	}
}

func TestCMPB(t *testing.T) {
	cases := []struct {
		a, b string
		want int32
	}{
		{"abc", "abc", 0},
		{"abc", "abd", -1},
		{"abz", "aba", 1},
	}
	for _, c := range cases {
		s := callRoutine(t, LCmpb, 0x100, 0x200, uint32(len(c.a)),
			func(s *risc.Sim) {
				copy(s.Mem[0x100:], c.a)
				copy(s.Mem[0x200:], c.b)
			})
		cc := int32(s.Reg[risc.RegCC])
		switch {
		case c.want == 0 && cc != 0:
			t.Errorf("%q vs %q: cc=%d", c.a, c.b, cc)
		case c.want < 0 && cc >= 0:
			t.Errorf("%q vs %q: cc=%d", c.a, c.b, cc)
		case c.want > 0 && cc <= 0:
			t.Errorf("%q vs %q: cc=%d", c.a, c.b, cc)
		}
	}
}

func TestSCNB(t *testing.T) {
	s := callRoutine(t, LScnb, 0x100, 'c', 10, func(s *risc.Sim) {
		copy(s.Mem[0x100:], "abcde")
	})
	if s.Reg[risc.RegT0] != 2 || s.Reg[risc.RegCC] != 0 {
		t.Errorf("found: pos=%d cc=%d", s.Reg[risc.RegT0], s.Reg[risc.RegCC])
	}
	s = callRoutine(t, LScnb, 0x100, 'z', 5, func(s *risc.Sim) {
		copy(s.Mem[0x100:], "abcde")
	})
	if s.Reg[risc.RegT0] != 5 || s.Reg[risc.RegCC] != 1 {
		t.Errorf("miss: pos=%d cc=%d", s.Reg[risc.RegT0], s.Reg[risc.RegCC])
	}
}
