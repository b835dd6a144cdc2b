package core

import (
	"sync"
	"sync/atomic"
	"time"

	"tnsr/internal/codefile"
)

// The parallel translation pipeline. After the shared analyze/RP/liveness
// phases, procedure translation fans out to a worker pool: each fragment
// (one procedure) is translated by a private translator with its own code
// buffer, label allocator, abstract state, stub queue and statistics, all
// reading the immutable transCtx. The per-fragment streams are then merged
// in ascending entry-address order — the order the serial walk emits them —
// so the merged instruction stream, label positions, PMap points and entry
// table are byte-identical to a Workers=1 translation.
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
// A label that resolves nowhere (a call into a procedure that was never
// emitted) stays unbound and fails in finalize, exactly as it does serially.

// fragResult is one fragment's private output.
type fragResult struct {
	f        *fn
	blockLbl map[uint16]label
	stats    codefile.AccelStats
	// pendingExact records a PMap point added after the fragment's last
	// emitted instruction: the serial walk would flag the next emitted
	// instruction (in a later procedure) as an exact-point scheduling
	// barrier, so the merge must carry it across the fragment boundary.
	pendingExact bool
}

// translate runs the translation phase of Accelerate: serially for
// Workers=1 (or a single procedure), through a fragment scheduler otherwise
// — the private worker pool by default, opts.Sched when attached. Every
// path returns the same emission buffer and statistics.
func translate(p *program, opts *Options) (*fn, codefile.AccelStats, error) {
	ctx := newTransCtx(p, opts)
	frags := ctx.fragments()
	if opts.Sched == nil && (opts.Workers <= 1 || len(frags) <= 1) {
		var t0 time.Time
		if opts.Obs != nil {
			t0 = time.Now()
		}
		f, stats, err := translateSerial(ctx, frags)
		if opts.Obs != nil {
			opts.Obs.Phase("translate", time.Since(t0))
		}
		return f, stats, err
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
func translateSerial(ctx *transCtx, frags []fragment) (*fn, codefile.AccelStats, error) {
	t := newTranslator(ctx, frags...)
	for _, fr := range frags {
		if err := t.translateRange(fr); err != nil {
			return nil, codefile.AccelStats{}, err
		}
	}
	return t.f, t.stats, nil
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
func translateSched(ctx *transCtx, frags []fragment, sched FragSched) (*fn, codefile.AccelStats, error) {
	results := make([]*fragResult, len(frags))
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
		results[k] = &fragResult{
			f:            tr.f,
			blockLbl:     tr.blockLbl,
			stats:        tr.stats,
			pendingExact: tr.f.pendingExact,
		}
	})
	if ctx.opts.Obs != nil {
		now := time.Now()
		ctx.opts.Obs.Phase("translate", now.Sub(t0))
		t0 = now
	}
	// Report the first error in fragment order, deterministically.
	for _, err := range errs {
		if err != nil {
			return nil, codefile.AccelStats{}, err
		}
	}
	f, stats, err := mergeFragments(ctx, results)
	if ctx.opts.Obs != nil {
		ctx.opts.Obs.Phase("merge", time.Since(t0))
	}
	return f, stats, err
}

// mergeFragments concatenates the per-fragment streams and resolves
// cross-fragment labels. Only positions matter downstream (scheduling,
// layout and encoding never inspect label identities), so remapping each
// fragment's labels by a fixed offset and then aliasing unbound references
// onto their owners' positions reproduces the serial result exactly.
func mergeFragments(ctx *transCtx, results []*fragResult) (*fn, codefile.AccelStats, error) {
	var nins, nlabels, npoints int
	for _, r := range results {
		nins += len(r.f.ins)
		nlabels += len(r.f.labelPos)
		npoints += len(r.f.points)
	}
	merged := newFn(len(ctx.p.file.Procs), nins)
	merged.labelPos = make([]int32, 0, nlabels)
	merged.points = make([]pmapPoint, 0, npoints)
	var stats codefile.AccelStats

	insOff := make([]int, len(results))
	lblOff := make([]int, len(results))
	carryExact := false
	for k, r := range results {
		insOff[k] = len(merged.ins)
		lblOff[k] = len(merged.labelPos)
		for i, ri := range r.f.ins {
			if ri.lbl != noLabel {
				ri.lbl += label(lblOff[k])
			}
			if ri.jLbl != noLabel {
				ri.jLbl += label(lblOff[k])
			}
			if ri.hasLA {
				ri.laLbl += label(lblOff[k])
			}
			if i == 0 && carryExact {
				ri.isExact = true
				carryExact = false
			}
			merged.ins = append(merged.ins, ri)
		}
		if len(r.f.ins) > 0 {
			carryExact = r.pendingExact
		} else {
			carryExact = carryExact || r.pendingExact
		}
		for _, lp := range r.f.labelPos {
			if lp >= 0 {
				lp += int32(insOff[k])
			}
			merged.labelPos = append(merged.labelPos, lp)
		}
		for _, pt := range r.f.points {
			pt.lbl += label(lblOff[k])
			merged.points = append(merged.points, pt)
		}
		// Fallback reasons: fragment address ranges are disjoint, so this
		// union is order-independent.
		for addr, w := range r.f.why {
			merged.why[addr] = w
		}
		merged.stats.inline += r.f.stats.inline
		merged.stats.elidedFlagOps += r.f.stats.elidedFlagOps
		stats.TNSInstrs += r.stats.TNSInstrs
		stats.TableWords += r.stats.TableWords
		stats.RPChecks += r.stats.RPChecks
		stats.PuzzlePoints += r.stats.PuzzlePoints
	}

	// Procedure entries: the owner fragment bound its prologue label; every
	// other fragment's entry for the same PEP index is an unbound alias.
	for k, r := range results {
		for pi, l := range r.f.procEntry {
			if l != noLabel && r.f.labelPos[l] >= 0 {
				merged.procEntry[pi] = l + label(lblOff[k])
			}
		}
	}
	for k, r := range results {
		for pi, l := range r.f.procEntry {
			if l == noLabel || r.f.labelPos[l] >= 0 {
				continue
			}
			if owner := merged.procEntry[pi]; owner != noLabel {
				merged.labelPos[int(l)+lblOff[k]] = merged.labelPos[owner]
			}
		}
	}

	// Block labels: bind each fragment's unresolved targets to the position
	// where the owning fragment bound that TNS address.
	bound := map[uint16]int32{}
	for k, r := range results {
		for addr, l := range r.blockLbl {
			if r.f.labelPos[l] >= 0 {
				bound[addr] = r.f.labelPos[l] + int32(insOff[k])
			}
		}
	}
	for k, r := range results {
		for addr, l := range r.blockLbl {
			if r.f.labelPos[l] >= 0 {
				continue
			}
			if pos, ok := bound[addr]; ok {
				merged.labelPos[int(l)+lblOff[k]] = pos
			}
		}
	}
	return merged, stats, nil
}
