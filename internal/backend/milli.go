package backend

import (
	"maps"
	"slices"
	"sync"
)

// The pointer area's words: the byte offset, from the area's base
// (millicode.PtrArea), of each runtime table's address. Millicode sources
// name them with the PTRO_* externs.
const (
	PtroUserPMapBase = 0  // user PMap base array
	PtroUserPMapOff  = 4  // user PMap offset bytes
	PtroLibPMapBase  = 8  // ditto for the library (0 if none)
	PtroLibPMapOff   = 12 //
	PtroUserEMap     = 16 // user PEP -> RISC entry byte address
	PtroLibEMap      = 20 // library PEP -> RISC entry byte address
)

var ptrExterns = map[string]uint32{
	"PTRO_UPMAP_BASE": PtroUserPMapBase,
	"PTRO_UPMAP_OFF":  PtroUserPMapOff,
	"PTRO_LPMAP_BASE": PtroLibPMapBase,
	"PTRO_LPMAP_OFF":  PtroLibPMapOff,
	"PTRO_UEMAP":      PtroUserEMap,
	"PTRO_LEMAP":      PtroLibEMap,
}

// Millicode is one target's millicode library: its assembly source and the
// target's mnemonic encoder. Each target writes its own source; all share
// the millicode.L* entry labels and the PTRO_* externs.
type Millicode struct {
	Source string
	Encode Encoder

	once   sync.Once
	code   []uint32
	labels map[string]uint32
}

// Build assembles the library and returns its code words plus the label
// map (word indexes relative to millicode.MilliBase, which is 0). The
// assembly is memoized — the source is a compile-time constant, so every
// build is identical — and each call returns private copies, so callers
// may mutate their result freely. This keeps runner construction cheap and
// concurrency-safe when a fleet host spins up thousands of machines. A
// source that does not assemble panics.
func (m *Millicode) Build() ([]uint32, map[string]uint32) {
	m.once.Do(func() {
		var err error
		if m.code, m.labels, err = Assemble(m.Source, ptrExterns, m.Encode); err != nil {
			panic(err)
		}
	})
	return slices.Clone(m.code), maps.Clone(m.labels)
}
