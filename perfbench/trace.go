package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the harness into a module's exported
// function. Times are nanoseconds since the tracer's epoch.
type span struct {
	name       string
	op         int
	id, parent int // parent -1: a root span
	start, end int64
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, which is how untraced runs call the same
// code.
type tracer struct {
	epoch  time.Time
	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), counts: map[string]float64{}} }

// scope is where a new span attaches: the tracer, the op it belongs to and
// the enclosing span.
type scope struct {
	tr     *tracer
	op     int
	parent int
}

func rootScope(tr *tracer, op int) scope { return scope{tr: tr, op: op, parent: -1} }

// begin opens a span named name under s and returns the scope for its
// children plus a handle for end. Untraced, both are inert.
func (s scope) begin(name string) (scope, int) {
	if s.tr == nil {
		return s, -1
	}
	now := time.Since(s.tr.epoch).Nanoseconds()
	s.tr.mu.Lock()
	id := len(s.tr.spans)
	s.tr.spans = append(s.tr.spans, span{name: name, op: s.op, id: id, parent: s.parent, start: now, end: -1})
	s.tr.mu.Unlock()
	return scope{tr: s.tr, op: s.op, parent: id}, id
}

func (s scope) end(id int) {
	if s.tr == nil || id < 0 {
		return
	}
	now := time.Since(s.tr.epoch).Nanoseconds()
	s.tr.mu.Lock()
	s.tr.spans[id].end = now
	s.tr.mu.Unlock()
}

// endAs closes a span under a name chosen once the call has returned (a
// fetch is a poll or the successful fetch only after it answers).
func (s scope) endAs(id int, name string) {
	if s.tr == nil || id < 0 {
		return
	}
	now := time.Since(s.tr.epoch).Nanoseconds()
	s.tr.mu.Lock()
	s.tr.spans[id].end = now
	s.tr.spans[id].name = name
	s.tr.mu.Unlock()
}

// count adds v to a traced counter.
func (s scope) count(name string, v float64) {
	if s.tr == nil {
		return
	}
	s.tr.mu.Lock()
	s.tr.counts[name] += v
	s.tr.mu.Unlock()
}

// call runs f inside a span named name and returns the call's duration.
func (s scope) call(name string, f func(scope)) time.Duration {
	c, id := s.begin(name)
	t0 := time.Now()
	f(c)
	d := time.Since(t0)
	s.end(id)
	return d
}

// layerTime is the summed time spans of one name spent.
type layerTime struct {
	n          int
	self, incl time.Duration
}

// selfTimes sums, per span name, each span's duration and its self time:
// the duration minus the part of its interval that child spans cover.
// Overlapping children (concurrent calls under one parent) count their
// union once, and a child is clipped to its parent's interval.
func selfTimes(spans []span) map[string]layerTime {
	kids := map[int][][2]int64{}
	for _, s := range spans {
		if s.parent >= 0 && s.end >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := map[string]layerTime{}
	for _, s := range spans {
		if s.end < 0 {
			continue
		}
		d := s.end - s.start
		lt := out[s.name]
		lt.n++
		lt.incl += time.Duration(d)
		lt.self += time.Duration(d - covered(s.start, s.end, kids[s.id]))
		out[s.name] = lt
	}
	return out
}

// covered is the length of [lo, hi) that the union of ivs covers.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	iv := append([][2]int64(nil), ivs...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write saves every span as one tab-separated line: op, id, parent, name,
// start and end in nanoseconds.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tid\tparent\tname\tstart_ns\tend_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.op, s.id, s.parent, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
