package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded from the
// benchmark's own files, around the calls into each layer; parent and op are
// filled in afterwards by link.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for a root
	Op     int    `json:"op"`     // index of the enclosing "op" root span, -1 outside any
}

// tracer keeps the spans of one traced pass in memory. The traced pass runs
// one client with one operation in flight, so every span nests strictly
// inside the span that caused it and containment in time gives parentage
// without threading a request id through the program under test. A nil
// *tracer records nothing, which is how the untraced passes run the same
// workload code.
type tracer struct {
	on    atomic.Bool // off during set-up and warm-up: only the traced pass records
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns its handle for end. Spans are appended in
// start order (the timestamp is taken under the lock), which link relies on.
func (t *tracer) start(name string) int {
	if t == nil || !t.on.Load() {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), End: -1, Parent: -1, Op: -1})
	h := len(t.spans) - 1
	t.mu.Unlock()
	return h
}

// end closes the span start returned.
func (t *tracer) end(h int) {
	if h < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[h].End = now
	t.mu.Unlock()
}

// opSpanPrefix marks the root span of one benchmark operation ("op:cite").
const opSpanPrefix = "op:"

// link assigns every span its parent — the innermost earlier span whose
// interval contains it — and the op it belongs to. spans must be in start
// order; unfinished spans (End < 0) are treated as ending at their start.
func link(spans []span) {
	var stack []int
	for i := range spans {
		s := &spans[i]
		if s.End < s.Start {
			s.End = s.Start
		}
		for len(stack) > 0 {
			top := &spans[stack[len(stack)-1]]
			if top.End >= s.End && top.Start <= s.Start {
				break
			}
			stack = stack[:len(stack)-1]
		}
		s.Parent, s.Op = -1, -1
		if len(stack) > 0 {
			s.Parent = stack[len(stack)-1]
			s.Op = spans[s.Parent].Op
		}
		if len(s.Name) > len(opSpanPrefix) && s.Name[:len(opSpanPrefix)] == opSpanPrefix {
			s.Op = i
		}
		stack = append(stack, i)
	}
}

// selfTimes returns, per span, its duration minus the part its direct
// children cover. spans must already be linked.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}

// writeSpans writes linked spans as JSON lines.
func writeSpans(path string, workload string, spans []span) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		row := struct {
			Workload string `json:"workload"`
			span
		}{workload, s}
		if err := enc.Encode(row); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
