package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"sync"
	"time"
)

// opClass is one kind of operation in a workload's mix.
type opClass struct {
	name   string
	weight int
}

// op is one planned operation: its class and four draws the class interprets
// (which repository, which path, which revision, what content).
type op struct {
	class int
	draw  [4]uint32
}

// planner turns a client's random stream into its operation sequence. The
// classes are dealt from a deck that holds each class in proportion to its
// weight and is shuffled anew every time it runs out, so every len(deck)
// consecutive operations are exactly the workload's mix: which operations a
// slice happened to draw is not a source of run-to-run noise. Planning never
// looks at the client's state, so the sequence is a function of (seed,
// workload, client) alone.
type planner struct {
	rng   *rand.Rand
	deck  []int // one card per unit of weight (weights reduced by their gcd): the card's class
	dealt int   // cards dealt since the last shuffle
}

func newPlanner(seed uint64, workload string, client int, classes []opClass) *planner {
	p := &planner{rng: rngFor(seed, fmt.Sprintf("%s/client/%d", workload, client))}
	unit := 0
	for _, c := range classes {
		unit = gcd(unit, c.weight)
	}
	for i, c := range classes {
		for k := 0; k < c.weight/unit; k++ {
			p.deck = append(p.deck, i)
		}
	}
	return p
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (p *planner) next() op {
	if p.dealt == 0 {
		p.rng.Shuffle(len(p.deck), func(i, j int) { p.deck[i], p.deck[j] = p.deck[j], p.deck[i] })
	}
	o := op{class: p.deck[p.dealt]}
	p.dealt = (p.dealt + 1) % len(p.deck)
	for i := range o.draw {
		o.draw[i] = p.rng.Uint32()
	}
	return o
}

// recorder collects what one client measured in one phase. Each client owns
// its recorder; they are merged after the clients have stopped.
type recorder struct {
	classes   []series           // client-observed latency per op class
	extra     map[string]*series // named series taken inside ops ("commit")
	counts    map[string]int64   // named counters taken inside ops
	attempted int64
	failed    int64
	busy      time.Duration // sum of the timed windows
}

func newRecorder(nclasses int) *recorder {
	return &recorder{classes: make([]series, nclasses), extra: map[string]*series{}, counts: map[string]int64{}}
}

func (r *recorder) observe(name string, d time.Duration) {
	s := r.extra[name]
	if s == nil {
		s = &series{}
		r.extra[name] = s
	}
	s.add(int64(d))
}

func (r *recorder) count(name string, n int64) { r.counts[name] += n }

func (r *recorder) merge(o *recorder) {
	for i := range r.classes {
		r.classes[i].merge(&o.classes[i])
	}
	for k, s := range o.extra {
		if r.extra[k] == nil {
			r.extra[k] = &series{}
		}
		r.extra[k].merge(s)
	}
	for k, n := range o.counts {
		r.counts[k] += n
	}
	r.attempted += o.attempted
	r.failed += o.failed
	r.busy += o.busy
}

// client executes operations against the system under test for one
// closed-loop client. do runs one operation, timing only its calls into the
// system (verification happens after the clock stops), and returns that time.
// A wrong answer is an error just like a failed call.
type client interface {
	do(o op, rec *recorder) (time.Duration, error)
}

// maxLoggedFailures bounds how many failed operations a phase describes on
// standard error; the rest are only counted.
const maxLoggedFailures = 5

// phase is one run of a workload's mix by one or more clients.
type phase struct {
	workload string
	classes  []opClass
	tr       *tracer

	logMu  sync.Mutex
	logged int
}

func (ph *phase) step(c client, pl *planner, rec *recorder) {
	o := pl.next()
	h := ph.tr.start(opSpanPrefix + ph.classes[o.class].name)
	d, err := c.do(o, rec)
	ph.tr.end(h)
	rec.attempted++
	rec.busy += d
	if err != nil {
		rec.failed++
		ph.logMu.Lock()
		if ph.logged < maxLoggedFailures {
			ph.logged++
			fmt.Fprintf(os.Stderr, "%s: %s failed: %v\n", ph.workload, ph.classes[o.class].name, err)
		}
		ph.logMu.Unlock()
		return
	}
	rec.classes[o.class].add(int64(d))
}

// drive runs every client in a closed loop — each issues its next operation
// only when the previous one has been answered and verified — for as long as
// more, called with the client's completed count, says so. It returns the
// merged recording and the wall time covered.
func (ph *phase) drive(clients []client, planners []*planner, more func(done int) bool) (*recorder, time.Duration) {
	recs := make([]*recorder, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range clients {
		recs[i] = newRecorder(len(ph.classes))
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for done := 0; more(done); done++ {
				ph.step(clients[i], planners[i], recs[i])
			}
		}(i)
	}
	wg.Wait()
	wall := time.Since(start)
	total := newRecorder(len(ph.classes))
	for _, r := range recs {
		total.merge(r)
	}
	return total, wall
}

// runFor drives the clients until d has passed.
func (ph *phase) runFor(clients []client, planners []*planner, d time.Duration) (*recorder, time.Duration) {
	deadline := time.Now().Add(d)
	return ph.drive(clients, planners, func(int) bool { return time.Now().Before(deadline) })
}

// runCount drives the clients for exactly n operations each.
func (ph *phase) runCount(clients []client, planners []*planner, n int) (*recorder, time.Duration) {
	return ph.drive(clients, planners, func(done int) bool { return done < n })
}
