// Internal tests for the publish path's cost and for the epoch an events
// poll answers under: a full ring must not pay for its length on every
// event, and a poll woken across a rotation must not pair the old epoch with
// the new feed.
package hosting

import (
	"context"
	"runtime"
	"testing"
	"time"
)

// publishedBytesPerEvent publishes n events and reports the heap bytes
// allocated per event while doing so (fillLog's own Tip strings included).
func publishedBytesPerEvent(l *eventLog, n int) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fillLog(l, n)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestPublishFullRingAllocatesO1 pins the tentpole's publish cost: once the
// ring is full, an event costs a constant number of bytes — not a copy of
// the retained window (4 096 events × 168 B = 688 KB per publish before) —
// whether the window sits at the soft cap or a live slow follower is
// holding it open up to the hard cap. Retention is unchanged either way.
func TestPublishFullRingAllocatesO1(t *testing.T) {
	const maxBytesPerEvent = 1024
	checkBacking := func(l *eventLog) {
		t.Helper()
		if len(l.buf) > 2*len(l.events) {
			t.Errorf("backing array holds %d events for a window of %d, want ≤ 2×", len(l.buf), len(l.events))
		}
	}

	t.Run("soft cap", func(t *testing.T) {
		l := newEventLog()
		fillLog(l, eventLogCap)
		if got := publishedBytesPerEvent(l, 4*eventLogCap); got > maxBytesPerEvent {
			t.Errorf("publishing into a full ring allocates %.0f B/event, want ≤ %d", got, maxBytesPerEvent)
		}
		if len(l.events) != eventLogCap {
			t.Errorf("ring retains %d events, want %d", len(l.events), eventLogCap)
		}
		checkBacking(l)
		if evs, head, ok := l.since(l.head-3, ""); !ok || len(evs) != 3 || evs[2].Seq != head {
			t.Errorf("tail read after 5 laps = %d events, ok=%v, want the last 3 through head %d", len(evs), ok, head)
		}
	})

	t.Run("slow follower", func(t *testing.T) {
		l := newEventLog()
		held := fillLog(l, eventLogCap)
		if _, _, ok := l.since(held, "slow"); !ok {
			t.Fatal("warm-up poll rejected")
		}
		// The follower stays live at cursor held: the window grows with every
		// publish until the hard cap, then slides at that size.
		if got := publishedBytesPerEvent(l, 4*eventLogCap); got > maxBytesPerEvent {
			t.Errorf("publishing with the window held open allocates %.0f B/event, want ≤ %d", got, maxBytesPerEvent)
		}
		if len(l.events) != eventLogHardCap {
			t.Errorf("ring retains %d events for a live follower, want the hard cap %d", len(l.events), eventLogHardCap)
		}
		checkBacking(l)
		oldest := l.head - int64(len(l.events))
		evs, _, ok := l.since(oldest, "slow")
		if !ok || len(evs) != maxEventsPerPoll || evs[0].Seq != oldest+1 {
			t.Errorf("oldest retained cursor %d not served from its first event (ok=%v, %d events)", oldest, ok, len(evs))
		}
	})
}

// BenchmarkEventPublishFullRing measures one publish into a ring already at
// eventLogCap — the regime a server lives in after its first 4 096 events.
func BenchmarkEventPublishFullRing(b *testing.B) {
	l := newEventLog()
	fillLog(l, eventLogCap)
	ev := Event{Type: EventRef, Owner: "o", Repo: "r", Branch: "b", Tip: "t"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.publish(ev)
	}
}

// TestEventsPollAcrossRotationCarriesNewEpoch is the regression test for a
// poll that parked on an empty feed, was woken by RotateEventEpoch and then
// by the first publish of the new epoch: the events it delivers belong to
// the new epoch, and so must the epoch it reports (CONTRIBUTING invariant 9
// — no event is delivered under a stale epoch).
func TestEventsPollAcrossRotationCarriesNewEpoch(t *testing.T) {
	p := NewPlatform()
	old, _ := p.events.state()

	// polled reports whether follower "f" has read the window since the
	// last rotation (a rotation clears the ack map).
	polled := func() bool {
		p.events.mu.Lock()
		defer p.events.mu.Unlock()
		return p.events.acks["f"] != nil
	}
	waitPolled := func(what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !polled() {
			if time.Now().After(deadline) {
				t.Fatalf("poller never %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}

	type result struct {
		resp EventsResponse
		err  error
	}
	done := make(chan result, 1)
	go func() {
		resp, err := p.EventsFrom(context.Background(), "f", 0, 30*time.Second)
		done <- result{resp, err}
	}()
	waitPolled("read the empty feed")
	fresh := p.RotateEventEpoch()
	waitPolled("re-read the feed after the rotation woke it")
	p.publishRef("o", "r", "b", "t0")

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatal(r.err)
		}
		if len(r.resp.Events) != 1 || r.resp.Events[0].Seq != 1 {
			t.Fatalf("poll answered %+v, want the new epoch's first event", r.resp)
		}
		if r.resp.Epoch != fresh {
			t.Errorf("event of epoch %s delivered under epoch %s (the pre-rotation epoch was %s)", fresh, r.resp.Epoch, old)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("publish left the long-poll parked")
	}
}
