package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"tnsr/internal/backend"
	"tnsr/internal/backend/mips"
	"tnsr/internal/backend/ob0"
	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/millicode"
	"tnsr/internal/workloads"
)

// TestAcceleratePair holds the entry point to the explicit two-call
// translation it replaced: the user file under the library's result-size
// summaries, the library in space 1 at millicode.LibCodeBase. For the five
// workloads at every level on both backends the returned codefiles
// serialize to the same bytes, a program without a library gets a nil
// library back, and the inputs serialize unchanged afterwards. The
// library's options spell the base out, as perfbench still does, so the
// bytes also prove that Space 1 alone derives that base; the keys are
// compared too.
func TestAcceleratePair(t *testing.T) {
	for _, name := range workloads.Names {
		w := workloads.MustBuild(name, 2)
		userIn, libIn := marshal(w.User), marshal(w.Lib)
		sums := map[uint16]int8{}
		if w.Lib != nil {
			for i, p := range w.Lib.Procs {
				sums[uint16(i)] = p.ResultWords
			}
		}
		for _, lvl := range levels {
			for _, be := range []backend.Backend{mips.Default, ob0.Default} {
				what := fmt.Sprintf("%s/%v/%s", name, lvl, be.Name())
				user, lib, err := core.AcceleratePair(w.User, w.Lib,
					core.Options{Level: lvl, Backend: be}, core.Accelerate)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}

				u := w.User.Pristine()
				if err := core.Accelerate(u, core.Options{Level: lvl, Backend: be,
					LibSummaries: sums}); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(marshal(user), marshal(u)) {
					t.Errorf("%s: user bytes differ from the explicit translation", what)
				}
				if w.Lib == nil {
					if lib != nil {
						t.Errorf("%s: a program without a library got one back", what)
					}
					continue
				}
				spelled := core.Options{Level: lvl, Backend: be,
					CodeBase: millicode.LibCodeBase, Space: 1}
				l := w.Lib.Pristine()
				if err := core.Accelerate(l, spelled); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(marshal(lib), marshal(l)) {
					t.Errorf("%s: library bytes differ from the explicit translation", what)
				}
				derived := spelled
				derived.CodeBase = 0
				kd, err := derived.TransKey(w.Lib.Fingerprint())
				if err != nil {
					t.Fatal(err)
				}
				if ks, _ := spelled.TransKey(w.Lib.Fingerprint()); kd != ks {
					t.Errorf("%s: Space 1 keys %s, with the base spelled out %s", what, kd, ks)
				}
			}
		}
		if !bytes.Equal(marshal(w.User), userIn) || !bytes.Equal(marshal(w.Lib), libIn) {
			t.Errorf("%s: AcceleratePair wrote its inputs", name)
		}
	}
}

// marshal serializes f; nil gives nil.
func marshal(f *codefile.File) []byte {
	if f == nil {
		return nil
	}
	b, _ := f.Marshal()
	return b
}
