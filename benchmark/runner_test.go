package main

import (
	"reflect"
	"testing"

	"github.com/gitcite/gitcite"
)

func planOf(seed uint64, workload string, client, n int) []op {
	w, _ := newWorkload(workload)
	pl := newPlanner(seed, workload, client, w.classes())
	ops := make([]op, n)
	for i := range ops {
		ops[i] = pl.next()
	}
	return ops
}

func TestSameSeedSameOperationSequence(t *testing.T) {
	for _, name := range workloadNames {
		a, b := planOf(7, name, 0, 500), planOf(7, name, 0, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two plans from seed 7 differ", name)
		}
		if reflect.DeepEqual(a, planOf(8, name, 0, 500)) {
			t.Errorf("%s: seeds 7 and 8 plan the same sequence", name)
		}
		if reflect.DeepEqual(a, planOf(7, name, 1, 500)) {
			t.Errorf("%s: clients 0 and 1 plan the same sequence", name)
		}
	}
	if reflect.DeepEqual(planOf(7, "hosted-hot", 0, 500), planOf(7, "hosted-cold", 0, 500)) {
		t.Error("two workloads plan the same sequence from one seed")
	}
}

// Every deck's worth of consecutive operations is exactly the mix.
func TestPlannerDealsTheExactMix(t *testing.T) {
	for _, name := range workloadNames {
		w, _ := newWorkload(name)
		classes := w.classes()
		total := 0
		for _, c := range classes {
			total += c.weight
		}
		deck := len(newPlanner(1, name, 0, classes).deck)
		if total%deck != 0 {
			t.Fatalf("%s: a deck of %d cards for weights summing to %d", name, deck, total)
		}
		ops := planOf(1, name, 0, 50*deck)
		for at := 0; at < len(ops); at += deck {
			seen := make([]int, len(classes))
			for _, o := range ops[at : at+deck] {
				seen[o.class]++
			}
			for i, c := range classes {
				if seen[i]*total != c.weight*deck {
					t.Fatalf("%s: operations %d..%d hold %d × %s, want %d", name, at, at+deck-1, seen[i], c.name, c.weight*deck/total)
				}
			}
		}
	}
}

func TestFixtureIsAFunctionOfItsSeed(t *testing.T) {
	gen := func(seed uint64) *fixture {
		return genFixture(rngFor(seed, "test"), gitcite.Meta{Owner: "t", Name: "r"}, 200, 12, 16, 10)
	}
	a, b := gen(3), gen(3)
	if !reflect.DeepEqual(a, b) {
		t.Error("two fixtures from seed 3 differ")
	}
	if reflect.DeepEqual(a.files, gen(4).files) {
		t.Error("seeds 3 and 4 lay out the same files")
	}
	if len(a.files) != 200 || len(a.spine) != 12 || len(a.cited) != 12+16 || len(a.deep) == 0 {
		t.Errorf("fixture has %d files, %d spine dirs, %d cited, %d deep", len(a.files), len(a.spine), len(a.cited), len(a.deep))
	}
	if got := len(a.uncited()); got != 200-16 {
		t.Errorf("%d uncited files, want %d", got, 200-16)
	}
}
