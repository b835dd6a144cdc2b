package xrun

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"tnsr/internal/tns"
)

// MirrorChecks counts the mirror-invariant checks CheckMirror made, so a
// test can show its path was exercised.
type MirrorChecks struct {
	mu        sync.Mutex
	Syncs     int // checks after a memory sync
	Rollbacks int // checks after a rollback
	// MaxPages is the most pages one sync copied, AdoptInterpreter's
	// full copy excluded.
	MaxPages int
	// FullCopies counts syncs that copied every page.
	FullCopies int
	failed     bool
}

// CheckMirror installs the mirror-invariant check (DESIGN.md §6) on every
// Runner in this test binary until t ends. After every memory sync the
// interpreter's memory must equal the simulator's TNS data region word
// for word; after every rollback every page where the two differ must be
// in the simulator's page set. The first violation fails t, and every
// violating runner is halted on the spot, so a broken mirror cannot run
// on to its instruction budget.
func CheckMirror(t testing.TB) *MirrorChecks {
	c := &MirrorChecks{}
	mirrorHook = func(r *Runner, pages int, rolledBack bool) {
		err := mirrorViolation(r, rolledBack)
		c.mu.Lock()
		defer c.mu.Unlock()
		if rolledBack {
			c.Rollbacks++
		} else {
			c.Syncs++
			if pages == tns.Pages {
				c.FullCopies++
			} else if pages > c.MaxPages {
				c.MaxPages = pages
			}
		}
		if err != nil {
			r.Halted = true
			if !c.failed {
				c.failed = true
				t.Error(err)
			}
		}
	}
	t.Cleanup(func() { mirrorHook = nil })
	return c
}

func mirrorViolation(r *Runner, rolledBack bool) error {
	for i, w := range r.Int.Mem {
		s := r.Sim.ReadHalf(uint32(2 * i))
		if w == s {
			continue
		}
		pg := i / tns.PageWords
		if !rolledBack {
			return fmt.Errorf("after a sync: data word %d (page %d) is %#04x in the interpreter, %#04x in the simulator",
				i, pg, w, s)
		}
		if !r.Sim.Dirty.Has(pg) {
			return fmt.Errorf("after a rollback: data word %d differs (%#04x in the interpreter, %#04x in the simulator) on page %d, which the simulator's page set lacks",
				i, w, s, pg)
		}
	}
	return nil
}

// RecycleChecks counts the simulator memories CheckRecycled checked, so a
// test can show the recycling path was exercised, and the runners
// released, so a test can show none was dropped unreleased.
type RecycleChecks struct {
	mu       sync.Mutex
	Taken    int // memories NewRunner took
	Recycled int // of them, ones a Release had handed back
	Released int // runners whose memory Release took back (first Release only)
	failed   bool
}

// CheckRecycled installs the recycled-memory check (DESIGN.md §6) on every
// NewRunner in this test binary until t ends: each simulator memory
// NewRunner takes must be all zero before NewRunner writes the runtime
// tables and the data image into it, exactly like a freshly allocated
// one. The first violation fails t. It also counts every Release.
func CheckRecycled(t testing.TB) *RecycleChecks {
	c := &RecycleChecks{}
	recycleHook = func(mem []byte, recycled bool) {
		at := firstNonzero(mem)
		c.mu.Lock()
		defer c.mu.Unlock()
		c.Taken++
		if recycled {
			c.Recycled++
		}
		if at >= 0 && !c.failed {
			c.failed = true
			t.Errorf("NewRunner took a memory (recycled %v) holding %#02x at byte %#x",
				recycled, mem[at], at)
		}
	}
	releaseHook = func() {
		c.mu.Lock()
		defer c.mu.Unlock()
		c.Released++
	}
	t.Cleanup(func() { recycleHook, releaseHook = nil, nil })
	return c
}

var zeroChunk [4096]byte

// firstNonzero returns the index of mem's first nonzero byte, or -1.
func firstNonzero(mem []byte) int {
	for off := 0; off < len(mem); off += len(zeroChunk) {
		chunk := mem[off:min(off+len(zeroChunk), len(mem))]
		if bytes.Equal(chunk, zeroChunk[:len(chunk)]) {
			continue
		}
		for i, b := range chunk {
			if b != 0 {
				return off + i
			}
		}
	}
	return -1
}
