package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// looseStore is PackStore's read-only legacy tier: the objects a repository
// holds from before every repository wrote packs, one zlib-compressed file
// per object under the store's root, fanned out by the first two hex
// characters of the ID (root/ab/cdef…). Nothing writes here any more;
// PackStore reads through to it until Repack folds its files into a pack and
// deletes them. The old writer renamed only complete files into place and
// Repack only deletes, so a file is whole or absent and reads take no lock.
type looseStore struct {
	root string
}

func (s *looseStore) pathFor(id object.ID) string {
	hexid := id.String()
	return filepath.Join(s.root, hexid[:2], hexid[2:])
}

// Get returns the object, verifying its hash, or ErrNotFound.
func (s *looseStore) Get(id object.ID) (object.Object, error) {
	compressed, err := os.ReadFile(s.pathFor(id))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: open: %w", err)
	}
	enc, err := decompress(compressed)
	if err != nil {
		return nil, fmt.Errorf("store: object %s corrupt: %w", id.Short(), err)
	}
	if object.HashBytes(enc) != id {
		return nil, fmt.Errorf("store: object %s fails hash verification", id.Short())
	}
	return object.Decode(enc)
}

// Has reports whether the object's file exists.
func (s *looseStore) Has(id object.ID) (bool, error) {
	_, err := os.Stat(s.pathFor(id))
	if err == nil {
		return true, nil
	}
	if os.IsNotExist(err) {
		return false, nil
	}
	return false, err
}

// HasMany answers Has for each ID, in input order.
func (s *looseStore) HasMany(ids []object.ID) ([]bool, error) {
	have := make([]bool, len(ids))
	for i, id := range ids {
		ok, err := s.Has(id)
		if err != nil {
			return nil, err
		}
		have[i] = ok
	}
	return have, nil
}

// IDs returns every loose object's ID: the census LooseCount caches and the
// list Repack folds.
func (s *looseStore) IDs() ([]object.ID, error) {
	var ids []object.ID
	fanouts, err := os.ReadDir(s.root)
	if err != nil {
		return nil, err
	}
	for _, fan := range fanouts {
		if !fan.IsDir() || len(fan.Name()) != 2 {
			continue
		}
		ids, err = s.appendFanoutIDs(ids, fan.Name())
		if err != nil {
			return nil, err
		}
	}
	return ids, nil
}

// appendFanoutIDs appends every object ID stored in one fanout dir. Names
// that are not the rest of an ID (a crashed writer's temp file) are skipped.
func (s *looseStore) appendFanoutIDs(ids []object.ID, fan string) ([]object.ID, error) {
	files, err := os.ReadDir(filepath.Join(s.root, fan))
	if err != nil {
		if os.IsNotExist(err) {
			return ids, nil
		}
		return nil, err
	}
	for _, f := range files {
		if id, err := object.ParseID(fan + f.Name()); err == nil {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// IDsByPrefix answers a prefix query from the fanout directories the prefix
// names: one for two or more hex characters, sixteen for one.
func (s *looseStore) IDsByPrefix(prefix string, limit int) ([]object.ID, error) {
	if _, _, err := prefixBounds(prefix); err != nil {
		return nil, err
	}
	prefix = strings.ToLower(prefix)
	fans := []string{prefix[:min(2, len(prefix))]}
	if len(prefix) == 1 {
		fans = fans[:0]
		for _, c := range "0123456789abcdef" {
			fans = append(fans, prefix+string(c))
		}
	}
	var out []object.ID
	for _, fan := range fans {
		ids, err := s.appendFanoutIDs(nil, fan)
		if err != nil {
			return nil, err
		}
		for _, id := range ids {
			if !strings.HasPrefix(id.String(), prefix) {
				continue
			}
			out = append(out, id)
			if limit > 0 && len(out) == limit {
				return out, nil
			}
		}
	}
	return out, nil
}

// Len returns the number of loose objects.
func (s *looseStore) Len() (int, error) {
	ids, err := s.IDs()
	return len(ids), err
}
