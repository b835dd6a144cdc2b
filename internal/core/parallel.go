package core

import (
	"sync"
	"sync/atomic"
	"time"

	"tnsr/internal/backend"
)

// The parallel translation pipeline. After the shared analyze/RP/liveness
// phases, procedure translation fans out to a worker pool: each fragment
// (one procedure) is translated by a private translator into its own
// emission buffer (code, labels, label tables and statistics), with its own
// abstract state and stub queue, all reading the immutable transCtx. The
// per-fragment buffers are then merged in ascending entry-address order —
// the order the serial walk emits them — so the merged instruction stream,
// label positions, PMap points, entry table and statistics are
// byte-identical to a Workers=1 translation.
//
// Cross-fragment references exist in exactly two forms, and both are
// resolved positionally at merge time:
//
//   - procedure-entry labels: a direct PCAL jumps to the callee's prologue.
//     The calling fragment allocates a private, unbound alias label; the
//     owning fragment binds the real label at its prologue. The merge points
//     every alias at the owner's final position.
//   - block labels: a branch or CASE table entry can target a block in
//     another procedure. Same scheme, keyed by TNS address.
//
// A buffer's label tables hold only the procedures and blocks it binds or
// refers to, so the merge is linear in the labels the fragments hold, not
// in fragments times PEP rows. A label that resolves nowhere (a call into a
// procedure that was never emitted) stays unbound and fails in finalize,
// exactly as it does serially.

// translate runs the translation phase of Accelerate: serially for
// Workers=1 (or a single procedure), through a fragment scheduler otherwise
// — the private worker pool by default, opts.Sched when attached. Every
// path returns the same emission buffer.
func translate(p *program, opts *Options) (*fn, error) {
	ctx := newTransCtx(p, opts)
	frags := ctx.fragments()
	if opts.Sched == nil && (opts.Workers <= 1 || len(frags) <= 1) {
		var t0 time.Time
		if opts.Obs != nil {
			t0 = time.Now()
		}
		f, err := translateSerial(ctx, frags)
		if opts.Obs != nil {
			opts.Obs.Phase("translate", time.Since(t0))
		}
		return f, err
	}
	sched := opts.Sched
	if sched == nil {
		workers := opts.Workers
		if workers > len(frags) {
			workers = len(frags)
		}
		sched = poolSched{workers: workers}
	}
	return translateSched(ctx, frags, sched)
}

// translateSerial walks the fragments in order with one translator sharing
// one buffer — the reference pipeline the parallel merge must reproduce.
func translateSerial(ctx *transCtx, frags []fragment) (*fn, error) {
	t := newTranslator(ctx, frags...)
	for _, fr := range frags {
		if err := t.translateRange(fr); err != nil {
			return nil, err
		}
	}
	return t.f, nil
}

// poolSched is the default FragSched: a private pool of workers goroutines
// claiming jobs off a shared atomic counter, exactly the shape the pipeline
// had before the scheduler was factored out.
type poolSched struct {
	workers int
}

func (p poolSched) Run(n int, job func(k int)) {
	workers := p.workers
	if workers > n {
		workers = n
	}
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(atomic.AddInt64(&next, 1))
				if k >= n {
					return
				}
				job(k)
			}
		}()
	}
	wg.Wait()
}

// translateSched fans the fragments out through sched and merges the results
// in fragment order. Which worker (or whose queue) ran each job is invisible
// here: results are indexed by fragment, so the merge — and therefore the
// emitted section — is byte-identical under any scheduler.
func translateSched(ctx *transCtx, frags []fragment, sched FragSched) (*fn, error) {
	results := make([]*fn, len(frags))
	errs := make([]error, len(frags))
	var t0 time.Time
	if ctx.opts.Obs != nil {
		t0 = time.Now()
	}
	sched.Run(len(frags), func(k int) {
		tr := newTranslator(ctx, frags[k])
		if err := tr.translateRange(frags[k]); err != nil {
			errs[k] = err
			return
		}
		results[k] = tr.f
	})
	if ctx.opts.Obs != nil {
		now := time.Now()
		ctx.opts.Obs.Phase("translate", now.Sub(t0))
		t0 = now
	}
	// Report the first error in fragment order, deterministically.
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	f := mergeFragments(results)
	if ctx.opts.Obs != nil {
		ctx.opts.Obs.Phase("merge", time.Since(t0))
	}
	return f, nil
}

// mergeFragments concatenates the per-fragment buffers and resolves
// cross-fragment labels. Only positions matter downstream (scheduling,
// layout and encoding never inspect label identities), so remapping each
// fragment's labels by a fixed offset and then aliasing unbound references
// onto their owners' positions reproduces the serial result exactly.
func mergeFragments(frags []*fn) *fn {
	var nins, nlabels, npoints int
	for _, r := range frags {
		nins += len(r.ins)
		nlabels += len(r.labelPos)
		npoints += len(r.points)
	}
	merged := newFn(nins)
	merged.labelPos = make([]int32, 0, nlabels)
	merged.points = make([]pmapPoint, 0, npoints)

	lblOff := make([]backend.Label, len(frags))
	for k, r := range frags {
		insOff := len(merged.ins)
		off := backend.Label(len(merged.labelPos))
		lblOff[k] = off
		merged.ins = append(merged.ins, r.ins...)
		for i := insOff; i < len(merged.ins); i++ {
			in := &merged.ins[i]
			if in.Lbl != backend.NoLabel {
				in.Lbl += off
			}
			if in.JLbl != backend.NoLabel {
				in.JLbl += off
			}
			if in.HasLA {
				in.LALbl += off
			}
		}
		// A PMap point added after a fragment's last instruction flags the
		// next instruction emitted, which the serial walk emits in a later
		// procedure: carry the flag across the fragment boundary.
		if merged.pendingExact && len(r.ins) > 0 {
			merged.ins[insOff].IsExact = true
			merged.pendingExact = false
		}
		merged.pendingExact = merged.pendingExact || r.pendingExact
		for _, lp := range r.labelPos {
			if lp >= 0 {
				lp += int32(insOff)
			}
			merged.labelPos = append(merged.labelPos, lp)
		}
		for _, pt := range r.points {
			pt.lbl += off
			merged.points = append(merged.points, pt)
		}
		// Fallback reasons: fragment address ranges are disjoint, so this
		// union is order-independent.
		for addr, w := range r.why {
			merged.why[addr] = w
		}
		st := &merged.stats
		st.TNSInstrs += r.stats.TNSInstrs
		st.RISCInstrs += r.stats.RISCInstrs
		st.RPChecks += r.stats.RPChecks
		st.PuzzlePoints += r.stats.PuzzlePoints
		st.ElidedFlagOps += r.stats.ElidedFlagOps
	}

	resolveAliases(merged, frags, lblOff, func(f *fn) map[int]backend.Label { return f.procEntry })
	resolveAliases(merged, frags, lblOff, func(f *fn) map[uint16]backend.Label { return f.blockLbl })
	return merged
}

// resolveAliases merges one label table (procedure entries or block
// leaders): the fragment that bound a key's label owns it, and every other
// fragment's label for that key is an unbound alias, pointed here at the
// owner's position in merged. lblOff is each fragment's label offset.
func resolveAliases[K comparable](merged *fn, frags []*fn, lblOff []backend.Label,
	table func(*fn) map[K]backend.Label) {
	owners := table(merged)
	for k, r := range frags {
		for key, l := range table(r) {
			if r.labelPos[l] >= 0 {
				owners[key] = l + lblOff[k]
			}
		}
	}
	for k, r := range frags {
		for key, l := range table(r) {
			if owner, ok := owners[key]; ok && r.labelPos[l] < 0 {
				merged.labelPos[l+lblOff[k]] = merged.labelPos[owner]
			}
		}
	}
}
