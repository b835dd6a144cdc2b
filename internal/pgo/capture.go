package pgo

import (
	"fmt"

	"tnsr/internal/codefile"
)

// Capture is the run-time observation sink for profile-guided
// retranslation. It follows the obs.Recorder contract exactly: producers
// hold a plain *Capture field that is nil by default and test it before
// each event, so an uncaptured run pays one pointer compare per hook site.
// A Capture is not safe for concurrent use; attach one per runner.
//
// The hooks record only facts, never interpretations: the interpreter
// reports what a call returned and where a CASE landed; the mixed-mode
// runner reports the dynamic RP wherever a guard fired. Turning those facts
// into translation decisions is entirely the Accelerator's job at apply
// time, which is what keeps the profile advisory.
type Capture struct {
	// Workload names the run for the profile header (optional).
	Workload string

	files [2]*codefile.File
	// procAt maps TNS code addresses to PEP indexes per space (-1 where
	// unattributed): codefile.File.ProcOf, the table obs attributes
	// residency by. Residency attribution is two array reads, no map in
	// the interpreter hot path.
	procAt [2][]int32

	procCalls  [2][]int64 // per PEP index
	procInterp [2][]int64

	calls map[uint32]*callAgg         // space<<16 | call addr
	cases map[uint32]map[uint16]int64 // space<<16 | CASE addr -> target
	rps   map[uint32]map[uint8]int64  // space<<16 | addr -> dynamic RP
}

type callAgg struct {
	results map[int8]int64
	targets map[uint32]int64 // callee space<<16 | pep
}

// NewCapture returns an empty capture. Call AttachFiles before a run to
// enable per-procedure residency weights and fingerprint stamping.
func NewCapture() *Capture {
	return &Capture{
		calls: map[uint32]*callAgg{},
		cases: map[uint32]map[uint16]int64{},
		rps:   map[uint32]map[uint8]int64{},
	}
}

// AttachFiles binds the capture to the codefiles of a run so observations
// can be attributed to procedures and the emitted profile carries the
// codefile fingerprints that gate a later apply. lib may be nil.
func (c *Capture) AttachFiles(user, lib *codefile.File) {
	c.files = [2]*codefile.File{user, lib}
	for sp, f := range c.files {
		c.procAt[sp] = f.ProcOf()
		if f != nil {
			c.procCalls[sp] = make([]int64, len(f.Procs))
			c.procInterp[sp] = make([]int64, len(f.Procs))
		}
	}
}

// InterpStep records one interpreted instruction at TNS address p. Hot
// path: two array reads and an increment.
func (c *Capture) InterpStep(space uint8, p uint16) {
	t := c.procAt[space&1]
	if int(p) < len(t) {
		if pi := t[p]; pi >= 0 {
			c.procInterp[space&1][pi]++
		}
	}
}

// CallTarget records that the call instruction at callAddr (in callerSpace)
// transferred to the procedure pep in calleeSpace. Fired by the interpreter
// after its trap checks, so only calls that actually entered a procedure
// are counted.
func (c *Capture) CallTarget(callerSpace uint8, callAddr uint16, calleeSpace uint8, pep uint16) {
	a := c.agg(callerSpace, callAddr)
	a.targets[uint32(calleeSpace&1)<<16|uint32(pep)]++
	if pc := c.procCalls[calleeSpace&1]; int(pep) < len(pc) {
		pc[pep]++
	}
}

// ExitReturn records the dynamic result size observed when an EXIT returned
// to retP in callerSpace: rpAfter is the machine RP after the EXIT, and
// callerRP the caller's RP packed in the stack marker (post-PLabel-pop for
// XCAL). Every TNS call instruction is one word, so the call site is
// retP-1; the result size is the RP delta around the 3-bit register barrel.
func (c *Capture) ExitReturn(callerSpace uint8, retP uint16, rpAfter, callerRP uint8) {
	if retP == 0 {
		return
	}
	words := int8((rpAfter - callerRP + 8) & 7)
	a := c.agg(callerSpace, retP-1)
	a.results[words]++
}

// CaseTarget records where the CASE indexed jump at caseAddr resolved to.
func (c *Capture) CaseTarget(space uint8, caseAddr, target uint16) {
	key := uint32(space&1)<<16 | uint32(caseAddr)
	m := c.cases[key]
	if m == nil {
		m = map[uint16]int64{}
		c.cases[key] = m
	}
	m[target]++
}

// EscapeRP records the dynamic RP at a TNS address where a run-time guard
// sent execution to the interpreter — the fact a failed check proves.
func (c *Capture) EscapeRP(space uint8, addr uint16, rp uint8) {
	key := uint32(space&1)<<16 | uint32(addr)
	m := c.rps[key]
	if m == nil {
		m = map[uint8]int64{}
		c.rps[key] = m
	}
	m[rp&7]++
}

func (c *Capture) agg(space uint8, addr uint16) *callAgg {
	key := uint32(space&1)<<16 | uint32(addr)
	a := c.calls[key]
	if a == nil {
		a = &callAgg{results: map[int8]int64{}, targets: map[uint32]int64{}}
		c.calls[key] = a
	}
	return a
}

// Profile snapshots the captured observations as one run's canonical
// profile. The capture keeps accumulating; calling Profile again reflects
// later events too.
func (c *Capture) Profile() *Profile {
	p := &Profile{Schema: Schema, Workload: c.Workload, Runs: 1}
	for sp := 0; sp < 2; sp++ {
		s := SpaceProfile{Space: spaceNames[sp]}
		if f := c.files[sp]; f != nil {
			s.File = f.Name
			s.Fingerprint = fmt.Sprintf("%016x", f.Fingerprint())
		}
		for key, a := range c.calls {
			if key>>16&1 != uint32(sp) {
				continue
			}
			cs := s.callSiteOrNew(uint16(key))
			for w, n := range a.results {
				cs.addResult(w, n)
			}
			for tk, n := range a.targets {
				cs.addTarget(spaceNames[tk>>16&1], uint16(tk), n)
			}
		}
		for key, m := range c.cases {
			if key>>16&1 != uint32(sp) {
				continue
			}
			cs := s.caseSiteOrNew(uint16(key))
			for t, n := range m {
				cs.addTarget(t, n)
			}
		}
		for key, m := range c.rps {
			if key>>16&1 != uint32(sp) {
				continue
			}
			rs := s.rpSiteOrNew(uint16(key))
			for rp, n := range m {
				rs.addRP(rp, n)
			}
		}
		if f := c.files[sp]; f != nil {
			for pi := range f.Procs {
				calls, instrs := c.procCalls[sp][pi], c.procInterp[sp][pi]
				if calls != 0 || instrs != 0 {
					s.addProc(f.Procs[pi].Name, calls, instrs)
				}
			}
		}
		if s.File != "" || len(s.CallSites) > 0 || len(s.CaseSites) > 0 ||
			len(s.RPSites) > 0 || len(s.Procs) > 0 {
			p.Spaces = append(p.Spaces, s)
		}
	}
	p.normalize()
	return p
}
