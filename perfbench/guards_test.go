package main

import (
	"strings"
	"testing"

	"tnsr/internal/obs"
	"tnsr/internal/tnsgen"
)

// wantTrip checks that err names the guard.
func wantTrip(t *testing.T, err error, guard string) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), "regime guard "+guard+" tripped") {
		t.Fatalf("err = %v; want guard %s to trip", err, guard)
	}
}

func TestGuardXlateCold(t *testing.T) {
	ok := xlateTally{ops: 10, submits: 10, frags: 40, trans: 10}
	if err := guardXlateCold(ok); err != nil {
		t.Fatal(err)
	}
	wrapped := ok
	wrapped.cached = 1 // a corpus that wrapped around: one op was a hit
	wantTrip(t, guardXlateCold(wrapped), "xlate-cold/no-store-hits")
	hit := ok
	hit.storeHits = 1
	wantTrip(t, guardXlateCold(hit), "xlate-cold/no-store-hits")
	untranslated := ok
	untranslated.trans = 9
	wantTrip(t, guardXlateCold(untranslated), "xlate-cold/every-op-translates")
	noFrags := ok
	noFrags.frags = 9
	wantTrip(t, guardXlateCold(noFrags), "xlate-cold/fragments")
	wantTrip(t, guardXlateCold(xlateTally{}), "xlate-cold/ops")
}

func TestGuardXlateWarm(t *testing.T) {
	ok := xlateTally{ops: 10, submits: 10, cached: 10}
	if err := guardXlateWarm(ok); err != nil {
		t.Fatal(err)
	}
	miss := ok
	miss.cached = 9
	wantTrip(t, guardXlateWarm(miss), "xlate-warm/all-cached")
	frag := ok
	frag.frags = 1
	wantTrip(t, guardXlateWarm(frag), "xlate-warm/no-fragments")
	wantTrip(t, guardXlateWarm(xlateTally{}), "xlate-warm/ops")
}

func TestGuardFleet(t *testing.T) {
	if err := guardFleet(5, 0, 0); err != nil {
		t.Fatal(err)
	}
	wantTrip(t, guardFleet(5, 1, 0), "fleet-et1/no-mode-switches")
	wantTrip(t, guardFleet(5, 0, 2), "fleet-et1/no-mode-switches")
	wantTrip(t, guardFleet(0, 0, 0), "fleet-et1/ops")
}

func TestGuardCampaign(t *testing.T) {
	var full tnsgen.Coverage
	for _, r := range obs.GuaranteeClasses {
		full.Runtime[r] = 1
	}
	if err := guardCampaign(&full); err != nil {
		t.Fatal(err)
	}
	wantTrip(t, guardCampaign(&tnsgen.Coverage{}), "campaign/mode-switches")
	partial := full
	partial.Runtime[obs.EscapeBreakpoint] = 0
	err := guardCampaign(&partial)
	wantTrip(t, err, "campaign/coverage")
	if !strings.Contains(err.Error(), "breakpoint") {
		t.Fatalf("coverage guard should name the missing class: %v", err)
	}
}
