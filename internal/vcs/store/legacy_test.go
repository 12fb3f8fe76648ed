package store

import (
	"os"
	"path/filepath"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// looseWriter is the loose writer every repository used before all of them
// wrote packs, kept only as a test fixture: it lays objects out the way the
// read-only loose tier expects to find them, one zlib file per object at
// root/ab/cdef…, compressed at the level compressionLevel picks for the
// object's kind. Reads come from the embedded looseStore.
type looseWriter struct{ *looseStore }

// newLooseWriter returns a fixture writer rooted at dir, creating dir.
func newLooseWriter(dir string) (looseWriter, error) {
	return looseWriter{&looseStore{root: dir}}, os.MkdirAll(dir, 0o755)
}

func (w looseWriter) PutManyEncoded(batch []Encoded) error {
	for _, e := range batch {
		buf, err := compress(e.Enc)
		if err != nil {
			return err
		}
		path := w.pathFor(e.ID)
		err = os.MkdirAll(filepath.Dir(path), 0o755)
		if err == nil {
			err = os.WriteFile(path, buf.Bytes(), 0o644)
		}
		compressBufPool.Put(buf)
		if err != nil {
			return err
		}
	}
	return nil
}

func (w looseWriter) PutMany(objs []object.Object) ([]object.ID, error) {
	ids := make([]object.ID, len(objs))
	batch := make([]Encoded, len(objs))
	for i, o := range objs {
		batch[i].Enc = object.Encode(o)
		batch[i].ID = object.HashBytes(batch[i].Enc)
		ids[i] = batch[i].ID
	}
	return ids, w.PutManyEncoded(batch)
}

func (w looseWriter) Put(o object.Object) (object.ID, error) {
	ids, err := w.PutMany([]object.Object{o})
	if err != nil {
		return object.ZeroID, err
	}
	return ids[0], nil
}

var _ Store = looseWriter{}

// closureIDs returns every ID reachable from the given roots.
func closureIDs(s Store, roots ...object.ID) ([]object.ID, error) {
	var out []object.ID
	err := WalkClosure(s, func(id object.ID, _ object.Object) error {
		out = append(out, id)
		return nil
	}, roots...)
	return out, err
}
