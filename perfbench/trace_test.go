package main

import (
	"testing"
	"time"
)

func TestSelfTimeOverlappingChildren(t *testing.T) {
	// parent [0,100); children [10,40) and [30,60) overlap on [30,40), so
	// they cover 50 units, not 60; a grandchild does not reduce the
	// parent's self time, and a child sticking out past its parent is
	// clipped to it.
	spans := []span{
		{name: "parent", id: 0, parent: -1, start: 0, end: 100},
		{name: "child", id: 1, parent: 0, start: 10, end: 40},
		{name: "child", id: 2, parent: 0, start: 30, end: 60},
		{name: "grandchild", id: 3, parent: 1, start: 15, end: 35},
		{name: "other", id: 4, parent: -1, start: 200, end: 210},
		{name: "late", id: 5, parent: 4, start: 205, end: 230},
	}
	st := selfTimes(spans)
	want := map[string]layerTime{
		"parent":     {n: 1, self: 50, incl: 100},
		"child":      {n: 2, self: 40, incl: 60},
		"grandchild": {n: 1, self: 20, incl: 20},
		"other":      {n: 1, self: 5, incl: 10},
		"late":       {n: 1, self: 25, incl: 25},
	}
	for name, w := range want {
		if got := st[name]; got != w {
			t.Errorf("%s: got %+v, want %+v", name, got, w)
		}
	}
}

func TestCoveredUnion(t *testing.T) {
	cases := []struct {
		lo, hi int64
		ivs    [][2]int64
		want   int64
	}{
		{0, 100, nil, 0},
		{0, 100, [][2]int64{{50, 60}, {10, 20}}, 20},
		{0, 100, [][2]int64{{10, 50}, {20, 30}, {40, 70}}, 60},
		{0, 100, [][2]int64{{-10, 10}, {90, 120}}, 20},
		{0, 100, [][2]int64{{0, 100}, {10, 20}}, 100},
	}
	for _, c := range cases {
		if got := covered(c.lo, c.hi, c.ivs); got != c.want {
			t.Errorf("covered(%d,%d,%v) = %d, want %d", c.lo, c.hi, c.ivs, got, c.want)
		}
	}
}

func TestTracerRecordsSpansAndCounts(t *testing.T) {
	tr := newTracer()
	s := rootScope(tr, 7)
	op, id := s.begin("op")
	op.call("inner", func(c scope) { c.count("n", 2) })
	fs, fid := op.begin("fetch")
	fs.endAs(fid, "poll")
	s.end(id)
	if len(tr.spans) != 3 || tr.counts["n"] != 2 {
		t.Fatalf("spans %+v counts %v", tr.spans, tr.counts)
	}
	if tr.spans[1].parent != 0 || tr.spans[1].op != 7 || tr.spans[2].name != "poll" {
		t.Fatalf("span tree wrong: %+v", tr.spans)
	}
	for _, sp := range tr.spans {
		if sp.end < sp.start {
			t.Fatalf("unclosed span %+v", sp)
		}
	}

	// Untraced, the same calls record nothing and still run f.
	ran := false
	d := rootScope(nil, 0).call("x", func(scope) { ran = true; time.Sleep(time.Millisecond) })
	if !ran || d < time.Millisecond {
		t.Fatalf("untraced call: ran %v, took %v", ran, d)
	}
}
