package xrun

import (
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
