// store.go wraps a store.Store with fault injection at the write and read
// surface a hosting platform drives: transient errors on any operation and
// torn batch writes (a prefix of the batch lands, then the operation fails)
// that model a crash mid-ingest. The wrapper forwards the batch and prefix
// fast paths so wrapping does not silently change which code paths run.
package faultinject

import (
	"github.com/gitcite/gitcite/internal/vcs/object"
	"github.com/gitcite/gitcite/internal/vcs/store"
)

// FaultStore injects scheduled faults in front of an inner store.
type FaultStore struct {
	name  string
	sched *Schedule
	inner store.Store
}

// WrapStore wraps inner so operations named by the schedule's rules for
// the given wrapper name fail as armed. A nil schedule injects nothing.
func WrapStore(name string, sched *Schedule, inner store.Store) *FaultStore {
	return &FaultStore{name: name, sched: sched, inner: inner}
}

// check consults the schedule for op and converts a firing rule into an
// error; torn-batch rules are handled by the batch methods themselves.
func (f *FaultStore) check(op string) error {
	if r, ok := f.sched.hit(f.name, op); ok && r.Fault == FaultErr {
		return injected(f.name, op, r.Fault)
	}
	return nil
}

// Put stores an object unless a fault is armed for "Put".
func (f *FaultStore) Put(o object.Object) (object.ID, error) {
	if err := f.check("Put"); err != nil {
		return object.ID{}, err
	}
	return f.inner.Put(o)
}

// Get retrieves an object unless a fault is armed for "Get".
func (f *FaultStore) Get(id object.ID) (object.Object, error) {
	if err := f.check("Get"); err != nil {
		return nil, err
	}
	return f.inner.Get(id)
}

// Has reports presence unless a fault is armed for "Has".
func (f *FaultStore) Has(id object.ID) (bool, error) {
	if err := f.check("Has"); err != nil {
		return false, err
	}
	return f.inner.Has(id)
}

// IDs forwards the full enumeration unless a fault is armed for "IDs".
func (f *FaultStore) IDs() ([]object.ID, error) {
	if err := f.check("IDs"); err != nil {
		return nil, err
	}
	return f.inner.IDs()
}

// Len forwards the object count unless a fault is armed for "Len".
func (f *FaultStore) Len() (int, error) {
	if err := f.check("Len"); err != nil {
		return 0, err
	}
	return f.inner.Len()
}

// PutMany stores a batch; a torn-batch rule persists only the first Arg
// objects before failing, modelling a crash mid-write. Because objects are
// content-addressed and Put is idempotent, a retry after the "crash"
// re-lands the prefix harmlessly.
func (f *FaultStore) PutMany(objs []object.Object) ([]object.ID, error) {
	if r, ok := f.sched.hit(f.name, "PutMany"); ok {
		switch r.Fault {
		case FaultErr:
			return nil, injected(f.name, "PutMany", r.Fault)
		case FaultTornBatch:
			keep := r.Arg
			if keep > len(objs) {
				keep = len(objs)
			}
			if _, err := f.inner.PutMany(objs[:keep]); err != nil {
				return nil, err
			}
			return nil, injected(f.name, "PutMany", r.Fault)
		}
	}
	return f.inner.PutMany(objs)
}

// HasMany answers a batch of presence queries unless a fault is armed.
func (f *FaultStore) HasMany(ids []object.ID) ([]bool, error) {
	if err := f.check("HasMany"); err != nil {
		return nil, err
	}
	return f.inner.HasMany(ids)
}

// PutManyEncoded ingests pre-encoded objects; torn-batch rules keep the
// first Arg encodings then fail, like PutMany.
func (f *FaultStore) PutManyEncoded(batch []store.Encoded) error {
	if r, ok := f.sched.hit(f.name, "PutManyEncoded"); ok {
		switch r.Fault {
		case FaultErr:
			return injected(f.name, "PutManyEncoded", r.Fault)
		case FaultTornBatch:
			keep := r.Arg
			if keep > len(batch) {
				keep = len(batch)
			}
			if err := f.inner.PutManyEncoded(batch[:keep]); err != nil {
				return err
			}
			return injected(f.name, "PutManyEncoded", r.Fault)
		}
	}
	return f.inner.PutManyEncoded(batch)
}

// IDsByPrefix forwards prefix queries unless a fault is armed.
func (f *FaultStore) IDsByPrefix(prefix string, limit int) ([]object.ID, error) {
	if err := f.check("IDsByPrefix"); err != nil {
		return nil, err
	}
	return f.inner.IDsByPrefix(prefix, limit)
}
