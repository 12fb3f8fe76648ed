package main

import (
	"testing"
	"time"
)

// A synthetic trace of two operations, in start order:
//
//	op:cite            [0, 100]
//	  extension.cite   [5, 95]
//	    http.roundtrip [10, 90]
//	      hosting.serve.cite [20, 70]
//	        store.cached.get [25, 35]
//	        store.cached.get [35, 60]   starts the instant its sibling ends
//	          store.pack.get [40, 55]
//	op:tree            [100, 150]       starts the instant the first op ends
//	  extension.tree   [110, 140]
func syntheticTrace() []span {
	mk := func(name string, start, end int64) span {
		return span{Name: name, Start: start, End: end, Parent: -9, Op: -9}
	}
	return []span{
		mk("op:cite", 0, 100),
		mk("extension.cite", 5, 95),
		mk("http.roundtrip", 10, 90),
		mk("hosting.serve.cite", 20, 70),
		mk("store.cached.get", 25, 35),
		mk("store.cached.get", 35, 60),
		mk("store.pack.get", 40, 55),
		mk("op:tree", 100, 150),
		mk("extension.tree", 110, 140),
	}
}

func TestLinkFindsParentsAndOpsByContainment(t *testing.T) {
	spans := syntheticTrace()
	link(spans)
	wantParent := []int{-1, 0, 1, 2, 3, 3, 5, -1, 7}
	wantOp := []int{0, 0, 0, 0, 0, 0, 0, 7, 7}
	for i, s := range spans {
		if s.Parent != wantParent[i] || s.Op != wantOp[i] {
			t.Errorf("span %d %s: parent %d op %d, want parent %d op %d", i, s.Name, s.Parent, s.Op, wantParent[i], wantOp[i])
		}
	}
}

func TestSelfTimeIsDurationMinusDirectChildren(t *testing.T) {
	spans := syntheticTrace()
	link(spans)
	self := selfTimes(spans)
	// op:cite 100-90; extension 90-80; roundtrip 80-50; serve 50-(10+25);
	// first get 10; second get 25-15; pack get 15; op:tree 50-30; extension.tree 30.
	want := []int64{10, 10, 30, 15, 10, 10, 15, 20, 30}
	var total int64
	for i := range spans {
		if self[i] != want[i] {
			t.Errorf("span %d %s: self %d, want %d", i, spans[i].Name, self[i], want[i])
		}
		total += self[i]
	}
	// Self times partition the root spans: nothing is counted twice or lost.
	if total != 150 {
		t.Errorf("self times sum to %d, want the 150 the two ops cover", total)
	}
}

func TestAggregateSumsByNameAndPrefix(t *testing.T) {
	spans := syntheticTrace()
	link(spans)
	agg := aggregate(spans)
	if g := agg("store.cached.get"); g.n != 2 || g.total != 35 || g.self != 20 {
		t.Errorf("store.cached.get: %+v, want n=2 total=35 self=20", g)
	}
	if g := agg("extension."); g.n != 2 || g.total != 120 || g.self != 40 {
		t.Errorf("extension.*: %+v, want n=2 total=120 self=40", g)
	}
	if g := agg("http.roundtrip"); g.selfUS() != 0.030 {
		t.Errorf("http.roundtrip self = %v µs, want 0.030 (round trip minus serve)", g.selfUS())
	}
}

func TestTracerRecordsOnlyWhileOn(t *testing.T) {
	var off *tracer
	off.end(off.start("nil tracer records nothing"))

	tr := newTracer()
	tr.end(tr.start("before the pass"))
	tr.on.Store(true)
	outer := tr.start("op:x")
	inner := tr.start("store.cached.get")
	time.Sleep(time.Millisecond)
	tr.end(inner)
	tr.end(outer)
	tr.on.Store(false)
	tr.end(tr.start("after the pass"))

	if len(tr.spans) != 2 {
		t.Fatalf("recorded %d spans, want the 2 started while on", len(tr.spans))
	}
	link(tr.spans)
	if tr.spans[1].Parent != 0 || tr.spans[1].Op != 0 || tr.spans[1].End <= tr.spans[1].Start {
		t.Errorf("inner span %+v is not a finished child of the op span", tr.spans[1])
	}
}
