// events.go is the primary side of replication: an in-memory, bounded,
// monotonically-sequenced log of platform mutations (accounts, repositories,
// memberships, ref updates) that followers long-poll through
// GET /api/v1/events and bootstrap from via GET /api/v1/replica/snapshot.
//
// The log is deliberately not durable: it is a wake-up channel, not a source
// of truth. Every event is re-derivable from platform state (the manifest
// plus each repository's refs and object closure), so a follower that falls
// off the retained window — or observes a new epoch after a primary restart
// — simply re-negotiates from a fresh snapshot. That keeps the primary's
// write path free of any per-follower bookkeeping: publishing is one
// mutex-guarded append whose cost does not depend on how many events are
// retained, and a primary with zero followers pays nothing else.
package hosting

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"sort"
	"sync"
	"time"
)

// Event types carried in Event.Type. A follower applies each idempotently:
// re-applying any prefix or suffix of the log converges to the same state,
// which is what makes at-least-once delivery (and crash-resume from a
// journaled cursor) correct.
const (
	EventUser   = "user"   // account created or re-tokened: Name, Token
	EventRepo   = "repo"   // repository created (or forked): Owner, Repo, URL, License
	EventMember = "member" // write access granted: Owner, Repo, Member
	EventRef    = "ref"    // branch moved: Owner, Repo, Branch, Tip
)

// Event is one replicated platform mutation. Seq is assigned by the log,
// strictly increasing within an epoch; field usage depends on Type.
type Event struct {
	Seq     int64  `json:"seq"`
	Type    string `json:"type"`
	Name    string `json:"name,omitempty"`
	Token   string `json:"token,omitempty"`
	Owner   string `json:"owner,omitempty"`
	Repo    string `json:"repo,omitempty"`
	URL     string `json:"url,omitempty"`
	License string `json:"license,omitempty"`
	Member  string `json:"member,omitempty"`
	Branch  string `json:"branch,omitempty"`
	Tip     string `json:"tip,omitempty"`
}

// EventsResponse answers one events poll. Reset tells the follower its
// cursor is useless here — wrong epoch (primary restarted), ahead of Head,
// or behind the retained window — and it must full-resync from a snapshot
// rather than keep polling into an error loop.
type EventsResponse struct {
	Epoch  string  `json:"epoch"`
	Head   int64   `json:"head"`
	Reset  bool    `json:"reset,omitempty"`
	Events []Event `json:"events,omitempty"`
}

// SnapshotUser is one account in a replication snapshot. Tokens travel so
// followers can authenticate the same credentials the primary does — which
// is why the snapshot and events endpoints answer only to the admin token.
type SnapshotUser struct {
	Name  string `json:"name"`
	Token string `json:"token"`
}

// SnapshotRepo is one repository in a replication snapshot: identity,
// membership and the branch tips the follower must converge to.
type SnapshotRepo struct {
	Owner   string            `json:"owner"`
	Name    string            `json:"name"`
	URL     string            `json:"url,omitempty"`
	License string            `json:"license,omitempty"`
	Members []string          `json:"members"`
	Tips    map[string]string `json:"tips,omitempty"`
}

// SnapshotResponse is the full-resync bootstrap: apply everything, then
// resume polling events from Cursor. The cursor is captured BEFORE the
// state is read, so any mutation racing the snapshot is either already in
// the state or still ahead of the cursor — replayed events only ever
// re-apply idempotently, never go missing.
type SnapshotResponse struct {
	Epoch  string         `json:"epoch"`
	Cursor int64          `json:"cursor"`
	Users  []SnapshotUser `json:"users"`
	Repos  []SnapshotRepo `json:"repos"`
}

// eventLogCap bounds the retained window when no live follower needs more.
// A follower further behind than the retained window resyncs from a
// snapshot; sizing it is a latency/memory trade, not a correctness one.
const eventLogCap = 4096

// eventLogHardCap bounds retention even when a live follower is far behind:
// past this the primary stops holding events for it and lets the follower
// fall back to a snapshot resync rather than grow the ring without bound.
const eventLogHardCap = 4 * eventLogCap

// followerLiveWindow is how long a follower's acknowledged cursor keeps
// holding the ring after its last poll. A follower silent for longer is
// presumed dead and no longer sizes retention.
const followerLiveWindow = 60 * time.Second

// maxTrackedFollowers bounds the per-follower ack map; past it the stalest
// entry is evicted. Followers identify themselves voluntarily, so this is
// a memory bound against churny or adversarial IDs, not a fleet-size cap.
const maxTrackedFollowers = 64

// maxEventsPerPoll bounds one poll's response body; a follower that is far
// behind drains the window across several polls.
const maxEventsPerPoll = 512

// ackState is one follower's replication progress as observed from its
// polls: a poll with since=N acknowledges that everything through N is
// applied and journaled on that follower.
type ackState struct {
	cursor int64
	seen   time.Time
}

// eventLog is the bounded publish/subscribe ring. The epoch is freshly
// random per process so a follower can tell "primary restarted and the log
// restarted from zero" apart from "log position zero".
type eventLog struct {
	mu     sync.Mutex
	epoch  string
	head   int64   // seq of the newest event; 0 before any publish
	events []Event // seqs [head-len+1 .. head]; a window into buf
	buf    []Event // backing array of events; see makeRoomLocked
	notify chan struct{}
	acks   map[string]*ackState
	now    func() time.Time // injected in tests to age followers

	// drained is closed (once) when the server starts shutting down, so
	// parked long-pollers answer immediately instead of waiting out their
	// deadlines and stalling the HTTP drain.
	drained   chan struct{}
	drainOnce sync.Once
}

func newEventLog() *eventLog {
	return &eventLog{
		epoch:   newEpoch(),
		notify:  make(chan struct{}),
		acks:    make(map[string]*ackState),
		now:     time.Now,
		drained: make(chan struct{}),
	}
}

// newEpoch mints a fresh random epoch identifier. crypto/rand never fails
// on supported platforms; an all-zero epoch would still be a valid (just
// less distinctive) epoch value.
func newEpoch() string {
	var b [16]byte
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// publish assigns the next sequence number, appends, trims the ring and
// wakes every parked poller. It returns the epoch and assigned sequence so
// write paths can report where an acknowledged write sits on the feed.
//
// Retention keeps at least eventLogCap events, extended down to the slowest
// live follower's acknowledged cursor (so a briefly-slow follower does not
// get forced into a full resync), but never past eventLogHardCap.
func (l *eventLog) publish(ev Event) (epoch string, seq int64) {
	l.mu.Lock()
	l.head++
	ev.Seq = l.head
	if len(l.events) == cap(l.events) {
		l.makeRoomLocked()
	}
	l.events = append(l.events, ev)
	if len(l.events) > eventLogCap {
		keepAfter := l.head - eventLogCap // retain seqs > keepAfter
		if min, ok := l.minLiveAckLocked(); ok && min < keepAfter {
			keepAfter = min
		}
		if floor := l.head - eventLogHardCap; keepAfter < floor {
			keepAfter = floor
		}
		oldest := l.head - int64(len(l.events)) // seq preceding the oldest retained event
		if drop := keepAfter - oldest; drop > 0 {
			// Trimming advances the window; the slots left behind are
			// reclaimed by the next makeRoomLocked.
			l.events = l.events[drop:]
		}
	}
	close(l.notify)
	l.notify = make(chan struct{})
	epoch, seq = l.epoch, l.head
	l.mu.Unlock()
	return epoch, seq
}

// minEventBuf is the smallest backing array makeRoomLocked allocates.
const minEventBuf = 64

// makeRoomLocked is called when the window has reached the end of its
// backing array: it moves the window to the front of an array twice its
// length, reusing the current array when it already has that size. That is
// the steady state — a ring trimmed to a constant length slides down once
// per len(events) publishes, so a publish copies one event on average and
// allocates nothing — and since the move frees len(events) slots, a window
// that is growing (a slow follower holding it open) or was just trimmed far
// down pays one allocation per doubling or halving. Backing memory is thus
// at most twice the window it was last sized for, and a trimmed event's
// strings stay reachable for at most one more lap. Events handed to pollers
// are copies (since), so overwriting slots is safe. Callers hold l.mu.
func (l *eventLog) makeRoomLocked() {
	n := len(l.events)
	size := max(2*n, minEventBuf)
	if size != len(l.buf) {
		l.buf = make([]Event, size)
	}
	copy(l.buf, l.events)
	l.events = l.buf[:n]
}

// minLiveAckLocked returns the smallest acknowledged cursor among followers
// seen within followerLiveWindow. Callers hold l.mu.
func (l *eventLog) minLiveAckLocked() (int64, bool) {
	cutoff := l.now().Add(-followerLiveWindow)
	var min int64
	ok := false
	for _, a := range l.acks {
		if a.seen.Before(cutoff) {
			continue
		}
		if !ok || a.cursor < min {
			min, ok = a.cursor, true
		}
	}
	return min, ok
}

// noteAckLocked records follower id's acknowledged cursor. The map is
// bounded: when full, the stalest follower is evicted to make room.
// Callers hold l.mu.
func (l *eventLog) noteAckLocked(id string, cursor int64) {
	if id == "" {
		return
	}
	if a := l.acks[id]; a != nil {
		if cursor > a.cursor {
			a.cursor = cursor
		}
		a.seen = l.now()
		return
	}
	if len(l.acks) >= maxTrackedFollowers {
		var stalest string
		var when time.Time
		for k, a := range l.acks {
			if stalest == "" || a.seen.Before(when) {
				stalest, when = k, a.seen
			}
		}
		delete(l.acks, stalest)
	}
	l.acks[id] = &ackState{cursor: cursor, seen: l.now()}
}

// rotate mints a fresh epoch and restarts the log from zero — the promotion
// fence. Every follower of the old feed observes the epoch change on its
// next poll and full-resyncs; every cursor journaled under the old epoch is
// invalidated. Parked pollers are woken so none sleeps through the flip.
func (l *eventLog) rotate() string {
	l.mu.Lock()
	l.epoch = newEpoch()
	l.head = 0
	l.events, l.buf = nil, nil
	l.acks = make(map[string]*ackState)
	close(l.notify)
	l.notify = make(chan struct{})
	epoch := l.epoch
	l.mu.Unlock()
	return epoch
}

// interrupt permanently wakes every parked and future poller; used at
// shutdown so long-polls answer immediately and the HTTP drain completes.
func (l *eventLog) interrupt() {
	l.drainOnce.Do(func() { close(l.drained) })
}

// wait returns the channel closed by the next publish. Callers grab it
// BEFORE checking since() so a publish racing the check is never missed.
func (l *eventLog) wait() <-chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.notify
}

// since returns the retained events after cursor, capped at
// maxEventsPerPoll, and records the poll as follower id's acknowledgment
// of everything through cursor. ok is false when the cursor cannot be
// served incrementally: ahead of head (a different history — the primary
// restarted, or the follower journaled against another epoch) or behind
// the retained window (evicted by capacity).
func (l *eventLog) since(cursor int64, id string) (evs []Event, head int64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.sinceLocked(cursor, id)
}

// sinceLocked is since for callers that hold l.mu — a poll reads the epoch
// under the same acquisition, so the events it answers with are never
// paired with another epoch's identifier.
func (l *eventLog) sinceLocked(cursor int64, id string) (evs []Event, head int64, ok bool) {
	oldest := l.head - int64(len(l.events)) // seq preceding the oldest retained event
	if cursor > l.head || cursor < oldest {
		return nil, l.head, false
	}
	l.noteAckLocked(id, cursor)
	from := int(cursor - oldest)
	n := len(l.events) - from
	if n > maxEventsPerPoll {
		n = maxEventsPerPoll
	}
	if n > 0 {
		evs = append(evs, l.events[from:from+n]...)
	}
	return evs, l.head, true
}

// state reports the epoch and current head under one lock acquisition —
// the snapshot's cursor capture.
func (l *eventLog) state() (epoch string, head int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch, l.head
}

// publishRef records a branch update on the replication feed and reports
// where it landed (epoch + sequence), so the write path can tell clients
// which feed position acknowledges their push. Callers hold the
// repository's edit lock across ref-set + publish, so events for one
// branch are ordered exactly like the ref updates themselves — a follower
// applying them in sequence can never regress a branch it is current on.
func (p *Platform) publishRef(owner, name, branch, tipHex string) (epoch string, seq int64) {
	return p.events.publish(Event{Type: EventRef, Owner: owner, Repo: name, Branch: branch, Tip: tipHex})
}

// Events answers one anonymous replication poll; see EventsFrom.
func (p *Platform) Events(ctx context.Context, since int64, wait time.Duration) (EventsResponse, error) {
	return p.EventsFrom(ctx, "", since, wait)
}

// EventsFrom answers one replication poll: everything after the since
// cursor, parking up to wait for the first publish when the follower is
// current. A cursor the log cannot serve incrementally comes back Reset —
// the follower's signal to full-resync from a snapshot instead of
// erroring. A non-empty followerID records the poll as that follower's
// acknowledged cursor, which sizes ring retention and feeds fleet status.
func (p *Platform) EventsFrom(ctx context.Context, followerID string, since int64, wait time.Duration) (EventsResponse, error) {
	if err := ctx.Err(); err != nil {
		return EventsResponse{}, err
	}
	var deadline <-chan time.Time
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		deadline = t.C
	}
	for {
		// The wake channel is taken BEFORE the window is read, so a publish
		// racing the read is never missed; epoch, head and events come from
		// one lock acquisition, so a rotation between two laps of this loop
		// cannot pair the old epoch with the new feed's events.
		wake := p.events.wait()
		p.events.mu.Lock()
		epoch := p.events.epoch
		evs, head, ok := p.events.sinceLocked(since, followerID)
		p.events.mu.Unlock()
		if !ok {
			return EventsResponse{Epoch: epoch, Head: head, Reset: true}, nil
		}
		if len(evs) > 0 || wait <= 0 {
			return EventsResponse{Epoch: epoch, Head: head, Events: evs}, nil
		}
		select {
		case <-wake:
		case <-deadline:
			return EventsResponse{Epoch: epoch, Head: head}, nil
		case <-p.events.drained:
			// Shutdown: answer empty now so the HTTP drain completes.
			return EventsResponse{Epoch: epoch, Head: head}, nil
		case <-ctx.Done():
			return EventsResponse{}, ctx.Err()
		}
	}
}

// InterruptEventWaiters wakes every parked events long-poll, permanently:
// polls answer empty immediately from then on. Wire it to
// http.Server.RegisterOnShutdown so graceful drain is not held hostage by
// a follower's wait=N deadline.
func (p *Platform) InterruptEventWaiters() {
	p.events.interrupt()
}

// RotateEventEpoch mints a fresh events epoch and restarts the feed from
// sequence zero, returning the new epoch. This is promotion's fence: a
// just-promoted primary rotates so every cursor journaled under the old
// primary's epoch — including the old primary's own, should it come back
// as a follower — is invalidated into a full resync.
func (p *Platform) RotateEventEpoch() string {
	return p.events.rotate()
}

// FollowerStatus is one follower's replication progress as seen by the
// primary, derived from the follower's own event polls.
type FollowerStatus struct {
	ID       string    `json:"id"`
	Cursor   int64     `json:"cursor"`
	Lag      int64     `json:"lag"`
	LastSeen time.Time `json:"last_seen"`
	Live     bool      `json:"live"`
}

// FleetStatus is the primary's view of its replication feed: epoch, head,
// how much of the ring is retained, and each known follower's acknowledged
// position.
type FleetStatus struct {
	Epoch     string           `json:"epoch"`
	Head      int64            `json:"head"`
	Retained  int              `json:"retained"`
	Followers []FollowerStatus `json:"followers,omitempty"`
}

// FleetStatus reports the feed and every tracked follower, sorted by ID.
func (p *Platform) FleetStatus() FleetStatus {
	l := p.events
	l.mu.Lock()
	defer l.mu.Unlock()
	fs := FleetStatus{Epoch: l.epoch, Head: l.head, Retained: len(l.events)}
	cutoff := l.now().Add(-followerLiveWindow)
	for id, a := range l.acks {
		fs.Followers = append(fs.Followers, FollowerStatus{
			ID:       id,
			Cursor:   a.cursor,
			Lag:      l.head - a.cursor,
			LastSeen: a.seen,
			Live:     !a.seen.Before(cutoff),
		})
	}
	sort.Slice(fs.Followers, func(i, j int) bool { return fs.Followers[i].ID < fs.Followers[j].ID })
	return fs
}

// Snapshot captures the full replication bootstrap. The event cursor is
// read first, then accounts and membership under the platform lock, then
// branch tips per repository outside it (pinned, so the LRU cannot close a
// handle mid-read): a mutation concurrent with the snapshot lands either in
// the captured state or after the cursor, and idempotent application
// absorbs the overlap.
func (p *Platform) Snapshot(ctx context.Context) (SnapshotResponse, error) {
	if err := ctx.Err(); err != nil {
		return SnapshotResponse{}, err
	}
	epoch, cursor := p.events.state()
	resp := SnapshotResponse{Epoch: epoch, Cursor: cursor}

	p.mu.RLock()
	if p.closed {
		p.mu.RUnlock()
		return SnapshotResponse{}, ErrClosed
	}
	resp.Users = make([]SnapshotUser, 0, len(p.users))
	for _, u := range p.users {
		resp.Users = append(resp.Users, SnapshotUser{Name: u.Name, Token: u.Token})
	}
	handles := make([]*hostedRepo, 0, len(p.repos))
	resp.Repos = make([]SnapshotRepo, 0, len(p.repos))
	for _, hr := range p.repos {
		members := make([]string, 0, len(hr.members))
		for m := range hr.members {
			members = append(members, m)
		}
		sort.Strings(members)
		handles = append(handles, hr)
		resp.Repos = append(resp.Repos, SnapshotRepo{
			Owner: hr.owner, Name: hr.meta.Name, URL: hr.meta.URL,
			License: hr.meta.License, Members: members,
		})
	}
	p.mu.RUnlock()

	sort.Slice(resp.Users, func(i, j int) bool { return resp.Users[i].Name < resp.Users[j].Name })
	order := make([]int, len(resp.Repos))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := resp.Repos[order[i]], resp.Repos[order[j]]
		return repoKey(a.Owner, a.Name) < repoKey(b.Owner, b.Name)
	})

	sorted := make([]SnapshotRepo, 0, len(order))
	for _, i := range order {
		if err := ctx.Err(); err != nil {
			return SnapshotResponse{}, err
		}
		sr := resp.Repos[i]
		repo, release, err := p.pin(handles[i])
		if err != nil {
			return SnapshotResponse{}, err
		}
		branches, err := repo.VCS.Branches()
		if err == nil {
			sr.Tips = make(map[string]string, len(branches))
			for _, b := range branches {
				tip, terr := repo.VCS.BranchTip(b)
				if terr != nil {
					err = terr
					break
				}
				sr.Tips[b] = tip.String()
			}
		}
		release()
		if err != nil {
			return SnapshotResponse{}, err
		}
		sorted = append(sorted, sr)
	}
	resp.Repos = sorted
	return resp, nil
}
