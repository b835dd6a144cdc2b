package tnsgen

import (
	"bytes"
	"testing"

	"tnsr/internal/codefile"
)

// TestOracleLeavesAssemblyUnchanged runs the whole oracle over one
// assembly — every level on mips and ob0, the selective and breakpointed
// passes, the adaptive cycle and chaos mutants — then requires each
// assembled codefile to serialize exactly as a fresh assembly of the same
// sources does. The passes share the assembly, so a translation written
// into it instead of into a copy would leak into every later pass.
func TestOracleLeavesAssemblyUnchanged(t *testing.T) {
	full := Generate("full", 3, FullConfig()).Subject()
	pair := Generate("pair", 5, Config{Library: true}).Subject()
	// A library pair's user file holds only main; leaving it cold still
	// runs a selective pass, against the level's one library translation.
	pair.Cold, pair.WantBreak = []string{"main"}, true
	opts := DefaultOracle()
	opts.Backends = oracleBackends(t)
	opts.Adaptive, opts.Chaos, opts.ChaosSeed = true, 8, 1

	for _, s := range []*Subject{full, pair} {
		a, err := assemble(s)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Cold) == 0 || !s.WantBreak {
			t.Fatalf("%s: want cold procedures and a breakpointed pass, got %v %v",
				s.Name, s.Cold, s.WantBreak)
		}
		res := &Result{}
		if err := opts.run(s, a, res); err != nil {
			t.Errorf("%s: oracle: %v", s.Name, err)
		}
		if res.ChaosMutants != opts.Chaos {
			t.Errorf("%s: %d chaos mutants checked, want %d", s.Name, res.ChaosMutants, opts.Chaos)
		}
		fresh, err := assemble(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range [][2]*codefile.File{{a.user, fresh.user}, {a.lib, fresh.lib}} {
			if f[0] == nil {
				continue
			}
			got, _ := f[0].Marshal()
			want, _ := f[1].Marshal()
			if !bytes.Equal(got, want) {
				t.Errorf("%s: codefile %s changed under the oracle (accelerated: %v)",
					s.Name, f[0].Name, f[0].Accel != nil)
			}
		}
	}
}
