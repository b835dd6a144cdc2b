package xrun

import (
	"bytes"
	"slices"
	"testing"

	"tnsr/internal/codefile"
	"tnsr/internal/core"
	"tnsr/internal/obs"
	"tnsr/internal/risc"
	"tnsr/internal/workloads"
)

// TestCountSlotsAttributeEveryWord counts every word of the code space
// once in its count slot, folds the slots as Run does, and requires the
// report of RISCStep called once per word: each word's slot, gap words
// included, is attributed to the word's own procedure, for every shape of
// image (which spaces are translated, loaded or refused).
func TestCountSlotsAttributeEveryWord(t *testing.T) {
	w := workloads.MustBuild("et1", 2)
	user, lib, err := core.AcceleratePair(w.User, w.Lib,
		core.Options{Level: codefile.LevelDefault, Workers: 1}, core.Accelerate)
	if err != nil {
		t.Fatal(err)
	}
	refused, acc := *user, *user.Accel
	acc.Entries = append(slices.Clone(acc.Entries), -1) // fails Verify
	refused.Accel = &acc
	for _, shape := range []struct {
		name      string
		user, lib *codefile.File
	}{
		{"user+lib", user, lib},
		{"user", user, nil},
		{"lib-only", w.User, lib},
		{"untranslated", w.User, w.Lib},
		{"user-refused", &refused, lib},
	} {
		t.Run(shape.name, func(t *testing.T) {
			img, err := NewImage(shape.user, shape.lib, risc.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			r := img.NewRunner()
			defer r.Release()
			folded := obs.NewRecorder()
			r.Observe(folded)
			code := img.Code()
			ref := obs.NewRecorder()
			ref.Attach(img.attr)
			for pc := uint32(0); pc < uint32(code.Len()); pc++ {
				r.Sim.Counts[code.Slot(pc)]++
				ref.RISCStep(pc)
			}
			r.foldCounts()
			got, err := folded.Report().JSON()
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Report().JSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("folding one count per word reports\n%s\nRISCStep once per word reports\n%s", got, want)
			}
			if n := folded.RISCInstrs; n != int64(code.Len()) {
				t.Errorf("RISCInstrs = %d, want the %d words", n, code.Len())
			}
			if slices.ContainsFunc(r.Sim.Counts, func(n int64) bool { return n != 0 }) {
				t.Error("the fold left counts behind")
			}
		})
	}
}
