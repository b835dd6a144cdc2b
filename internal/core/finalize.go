package core

import (
	"fmt"

	"tnsr/internal/backend"
	"tnsr/internal/codefile"
)

// finalizeSection hands the emitted stream to the selected backend for
// encoding, as it stands in the emission buffer, and builds the PMap, entry
// table and statistics into the codefile's acceleration section. It
// consumes the (possibly merged) emission buffer, so it is independent of
// how many workers produced it.
//
// The backend owns the mapping from virtual instruction indexes to target
// word indexes (Encoded.Pos): on MIPS it is the identity, on a target
// without delay slots the explicit slot nops vanish and everything after
// them shifts down. Labels, PMap points and entry addresses are all
// resolved through that mapping, so the analysis side never assumes
// one-word-per-instruction.
func finalizeSection(p *program, opts *Options, f *fn) (*codefile.AccelSection, error) {
	base := opts.CodeBase
	labelAt := func(l backend.Label) (int32, error) {
		if l < 0 || int(l) >= len(f.labelPos) || f.labelPos[l] < 0 {
			return 0, fmt.Errorf("core: unresolved label %d", l)
		}
		return f.labelPos[l], nil
	}

	enc, err := opts.Backend.Encode(f.ins, labelAt, base)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Word position of a label: where its instruction index landed.
	wordPos := func(l backend.Label) (int32, error) {
		p, err := labelAt(l)
		if err != nil {
			return 0, err
		}
		return enc.Pos[p], nil
	}

	pm := codefile.NewPMap(len(p.file.Code))
	expRP := make([]uint8, len(p.file.Code))
	for i := range expRP {
		expRP[i] = 0xFF
	}
	for _, pt := range f.points {
		pp, err := wordPos(pt.lbl)
		if err != nil {
			return nil, err
		}
		if err := pm.Add(pt.tnsAddr, int(base)+int(pp), pt.regExact); err != nil {
			return nil, err
		}
		if pt.regExact && pt.rp >= 0 {
			expRP[pt.tnsAddr] = uint8(pt.rp)
		}
	}
	// Seal the inverse cache: the finished section may be shared read-only
	// by any number of concurrent runners (fleet execution).
	pm.Seal()

	entries := make([]int32, len(p.file.Procs))
	for i := range entries {
		entries[i] = -1
	}
	for pi, l := range f.procEntry {
		if pos := f.labelPos[l]; pos >= 0 {
			entries[pi] = int32(base) + enc.Pos[pos]
		}
	}

	_, f.stats.TableWords = p.countKinds()
	for _, g := range p.guessedProc {
		if g {
			f.stats.GuessedProcs++
		}
	}

	return &codefile.AccelSection{
		Level:       opts.Level,
		BackendID:   opts.Backend.ID(),
		RISC:        enc.Code,
		Entries:     entries,
		ExpectedRP:  expRP,
		PMap:        pm,
		Stats:       f.stats,
		FallbackWhy: f.why,
	}, nil
}
