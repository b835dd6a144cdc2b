// End-to-end fleet harness: real workload captures, a real tnsprofd served
// over HTTP (httptest), real retranslations steered by the fetched
// aggregate. This is the test the subsystem exists for — N runners push,
// any order, and every machine ends up translating under the same bytes.
package profsrv_test

import (
	"bytes"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"

	"tnsr/internal/bench"
	"tnsr/internal/codefile"
	"tnsr/internal/obs"
	"tnsr/internal/pgo"
	"tnsr/internal/profsrv"
	"tnsr/internal/svc"
	"tnsr/internal/tcache"
	"tnsr/internal/xrun"
)

// newFleet starts a tnsprofd over a real socket and returns a client bound
// to it. Aging is disabled unless the caller sets it: the differential
// oracle needs the aggregate to be exactly the order-independent merge.
func newFleet(t testing.TB, mutate func(*profsrv.Config)) (*httptest.Server, *profsrv.Client) {
	t.Helper()
	store, err := profsrv.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := profsrv.Config{Store: store, Limits: svc.Limits{Token: "fleet-token"}}
	if mutate != nil {
		mutate(&cfg)
	}
	ts := httptest.NewServer(profsrv.New(cfg))
	t.Cleanup(ts.Close)
	return ts, profsrv.NewClient(ts.URL, "fleet-token")
}

// captureRunnerProfiles simulates N runners profiling the same program:
// the same workload captured at each acceleration level yields distinct
// observation sets (different levels keep different guards) that share one
// fingerprint (the fingerprint covers the CISC image, not the accel
// section) — exactly the mergeable-but-different shape a fleet produces.
func captureRunnerProfiles(t *testing.T) []*pgo.Profile {
	t.Helper()
	var out []*pgo.Profile
	for _, lvl := range []codefile.AccelLevel{
		codefile.LevelStmtDebug, codefile.LevelDefault, codefile.LevelFast,
	} {
		p, _, err := bench.CaptureWorkload("tal", lvl, 2, xrun.AdaptiveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	fp0, err := profsrv.UserFingerprint(out[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range out[1:] {
		fp, err := profsrv.UserFingerprint(p)
		if err != nil {
			t.Fatal(err)
		}
		if fp != fp0 {
			t.Fatalf("runner %d captured fingerprint %s, runner 0 %s", i+1, fp, fp0)
		}
	}
	return out
}

func permutations(n int) [][]int {
	var out [][]int
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			out = append(out, append([]int(nil), perm...))
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			rec(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	rec(0)
	return out
}

// TestFleetAggregateOrderIndependent is the differential oracle: every
// upload order — all six permutations, plus a fully concurrent round —
// must leave the server holding byte-for-byte the same aggregate a local
// pgo.Merge of the same captures produces.
func TestFleetAggregateOrderIndependent(t *testing.T) {
	profiles := captureRunnerProfiles(t)
	fp, err := profsrv.UserFingerprint(profiles[0])
	if err != nil {
		t.Fatal(err)
	}

	localMerge, err := pgo.Merge(profiles...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := localMerge.JSON()
	if err != nil {
		t.Fatal(err)
	}

	fetchBytes := func(cl *profsrv.Client) []byte {
		agg, err := cl.Fetch(fp)
		if err != nil {
			t.Fatal(err)
		}
		if agg == nil {
			t.Fatal("no aggregate after pushes")
		}
		data, err := agg.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	for _, perm := range permutations(len(profiles)) {
		_, cl := newFleet(t, nil)
		for _, i := range perm {
			if _, err := cl.Push(profiles[i]); err != nil {
				t.Fatalf("order %v: push %d: %v", perm, i, err)
			}
		}
		if got := fetchBytes(cl); !bytes.Equal(got, want) {
			t.Fatalf("upload order %v produced a different aggregate than local merge", perm)
		}
	}

	// Concurrent runners: same oracle, racing pushes (run under -race).
	_, cl := newFleet(t, nil)
	var wg sync.WaitGroup
	for _, p := range profiles {
		wg.Add(1)
		go func(p *pgo.Profile) {
			defer wg.Done()
			if _, err := cl.Push(p); err != nil {
				t.Errorf("concurrent push: %v", err)
			}
		}(p)
	}
	wg.Wait()
	if got := fetchBytes(cl); !bytes.Equal(got, want) {
		t.Fatal("concurrent pushes produced a different aggregate than local merge")
	}
}

// TestFleetSteersRetranslation closes the whole loop over the wire on the
// adversarial program: the cycle run against the daemon must apply exactly
// the bytes the local cycle applies (one capture in, one capture merged
// out), and therefore reach the same end state — zero rp-conflict escapes
// and identical observable behavior.
func TestFleetSteersRetranslation(t *testing.T) {
	const budget = 200_000_000

	local, err := bench.AdaptiveAdversarial(budget, xrun.AdaptiveOptions{})
	if err != nil {
		t.Fatal(err)
	}

	_, cl := newFleet(t, nil)
	remote, err := bench.AdaptiveAdversarial(budget, xrun.AdaptiveOptions{Source: cl})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range remote.SourceErrs {
		t.Errorf("cycle degraded around source error: %v", e)
	}
	if err := local.Second.Outcome().Check(remote.Second.Outcome()); err != nil {
		t.Fatalf("remote-steered cycle diverged observably from the local cycle: %v", err)
	}

	// The aggregate served back for pass 2 is the merge of exactly one
	// capture — byte-identical to the capture itself, so the remote pass 2
	// is the same translation the local pass 2 ran.
	appliedJSON, err := remote.Applied.JSON()
	if err != nil {
		t.Fatal(err)
	}
	capturedJSON, err := remote.Profile.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(appliedJSON, capturedJSON) {
		t.Error("single-runner aggregate is not byte-identical to the capture")
	}

	if c := remote.SecondObs.Escapes[obs.EscapeRPConflict]; c != 0 {
		t.Errorf("pass 2 under the fleet aggregate still hit %d rp-conflict escapes", c)
	}
	rf, lf := remote.Second.InterpFraction(), local.Second.InterpFraction()
	if rf != lf {
		t.Errorf("remote-steered residency %.6f != local %.6f", rf, lf)
	}

	// The fleet now holds the aggregate for the next machine.
	f, err := bench.AdversarialProgram()
	if err != nil {
		t.Fatal(err)
	}
	agg, err := cl.Fetch(fmt.Sprintf("%016x", f.Fingerprint()))
	if err != nil {
		t.Fatal(err)
	}
	if agg == nil {
		t.Fatal("fleet holds no aggregate after the cycle pushed one")
	}
}

// TestFleetSecondMachineBenefit is the fleet payoff: a second machine
// running the same program fetches the first machine's observations before
// its first pass, so it never suffers the cold rp-conflict escapes — and
// with a shared retranslation cache it doesn't even pay for the
// translation the first machine already did.
func TestFleetSecondMachineBenefit(t *testing.T) {
	const budget = 200_000_000
	_, cl := newFleet(t, nil)
	cache, err := tcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	first, err := bench.AdaptiveAdversarial(budget, xrun.AdaptiveOptions{Source: cl, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if c := first.FirstObs.Escapes[obs.EscapeRPConflict]; c == 0 {
		t.Fatal("machine 1 pass 1 should escape cold (nothing on the fleet yet)")
	}
	if h := cache.Stats().Hits; h != 0 {
		t.Fatalf("machine 1 hit a cold cache %d times", h)
	}

	second, err := bench.AdaptiveAdversarial(budget, xrun.AdaptiveOptions{Source: cl, Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range second.SourceErrs {
		t.Errorf("machine 2 degraded around source error: %v", e)
	}
	if err := first.Second.Outcome().Check(second.Second.Outcome()); err != nil {
		t.Fatalf("machine 2 diverged observably from machine 1: %v", err)
	}
	// Machine 2's FIRST pass already ran under the fleet aggregate: the
	// cold escapes machine 1 paid never happen again anywhere in the fleet.
	if c := second.FirstObs.Escapes[obs.EscapeRPConflict]; c != 0 {
		t.Errorf("machine 2 pass 1 hit %d rp-conflict escapes despite the fleet aggregate", c)
	}
	// And its pass-1 translation (same codefile, same aggregate as machine
	// 1's pass 2) came straight from the shared cache.
	if h := cache.Stats().Hits; h == 0 {
		t.Error("machine 2 never hit the shared retranslation cache")
	}
}

// TestFleetScaleConcurrentPushes is the order-independence oracle at fleet
// scale: 9 machines — three identical cohorts of the three distinct
// level-captures, the shape a homogeneous fleet actually produces — push
// concurrently to one fingerprint, and the server must end up holding
// byte-for-byte the aggregate a sequential local pgo.Merge of the same
// nine captures produces. Run under -race, this also pins the store's
// per-fingerprint update locking.
func TestFleetScaleConcurrentPushes(t *testing.T) {
	base := captureRunnerProfiles(t)
	fp, err := profsrv.UserFingerprint(base[0])
	if err != nil {
		t.Fatal(err)
	}

	const cohorts = 3 // 3 cohorts x 3 captures = 9 concurrent machines
	var machines []*pgo.Profile
	for i := 0; i < cohorts; i++ {
		machines = append(machines, base...)
	}
	if len(machines) < 8 {
		t.Fatalf("only %d machines; the fleet oracle needs at least 8", len(machines))
	}

	localMerge, err := pgo.Merge(machines...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := localMerge.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if localMerge.Runs != int64(len(machines)) {
		t.Fatalf("local merge runs %d, want %d", localMerge.Runs, len(machines))
	}

	_, cl := newFleet(t, nil)
	var wg sync.WaitGroup
	for i, p := range machines {
		wg.Add(1)
		go func(i int, p *pgo.Profile) {
			defer wg.Done()
			if _, err := cl.Push(p); err != nil {
				t.Errorf("machine %d push: %v", i, err)
			}
		}(i, p)
	}
	wg.Wait()

	agg, err := cl.Fetch(fp)
	if err != nil {
		t.Fatal(err)
	}
	if agg == nil {
		t.Fatal("no aggregate after fleet pushes")
	}
	got, err := agg.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("fleet aggregate differs from sequential local merge:\nserver: %s\nlocal:  %s",
			got, want)
	}
}
