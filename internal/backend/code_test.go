package backend_test

import (
	"slices"
	"testing"

	"tnsr/internal/backend"
)

// TestCodeImageSlots pins the count-slot layout: each stored page has a
// page of slots of its own, in code order, and the gap pages after one
// segment share one page of slots, an empty segment ending the gap before
// it. The layout here: a 10-word segment at 0, an empty one at page 4, a
// 300-word one at page 8 (a partial last page), and gaps between them.
func TestCodeImageSlots(t *testing.T) {
	const pw = backend.CodePageWords
	c := backend.NewCodeImage(8*pw+300,
		backend.Segment{Base: 8 * pw, Words: make([]uint32, 300)},
		backend.Segment{Words: make([]uint32, 10)},
		backend.Segment{Base: 4 * pw})
	if got, want := c.SlotPages(), []uint32{0, 1, 4, 8, 9}; !slices.Equal(got, want) {
		t.Fatalf("SlotPages = %v, want %v", got, want)
	}
	if c.Slots() != 5*pw {
		t.Fatalf("Slots = %d, want %d", c.Slots(), 5*pw)
	}
	for _, tc := range []struct{ pc, slot uint32 }{
		{3, 3},                   // stored page 0
		{pw + 7, pw + 7},         // the first gap page after segment 0
		{3*pw + 7, pw + 7},       // a later one shares its slots
		{4*pw + 7, 2*pw + 7},     // the gap after the empty segment
		{7*pw + 255, 2*pw + 255}, // up to the next segment
		{8 * pw, 3 * pw},         // stored page 8
		{8*pw + 299, 4*pw + 43},  // the last word, on the partial page 9
	} {
		if got := c.Slot(tc.pc); got != tc.slot {
			t.Errorf("Slot(%d) = %d, want %d", tc.pc, got, tc.slot)
		}
	}

	if flat := backend.FlatCode(make([]uint32, pw+1)); flat.Slots() != 2*pw ||
		!slices.Equal(flat.SlotPages(), []uint32{0, 1}) {
		t.Errorf("flat code of %d words: %d slots over pages %v, want %d over [0 1]",
			pw+1, flat.Slots(), flat.SlotPages(), 2*pw)
	}
}
