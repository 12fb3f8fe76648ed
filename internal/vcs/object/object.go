// Package object defines the content-addressed object model of the vcs
// substrate: blobs, trees and commits, together with their canonical binary
// encoding and SHA-256 derived identifiers.
//
// The model mirrors Git's: a blob holds file bytes, a tree maps names to
// child objects (blobs or trees) with a mode, and a commit points at a root
// tree plus zero or more parent commits. Objects are immutable; their ID is
// the SHA-256 hash of their canonical encoding, so equal content always has
// an equal ID regardless of which store holds it.
package object

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
)

// Type discriminates the kinds of objects held in a store.
type Type uint8

// Object types.
const (
	TypeInvalid Type = iota
	TypeBlob
	TypeTree
	TypeCommit
)

// String returns the lower-case name used in encodings and error messages.
func (t Type) String() string {
	switch t {
	case TypeBlob:
		return "blob"
	case TypeTree:
		return "tree"
	case TypeCommit:
		return "commit"
	default:
		return fmt.Sprintf("invalid(%d)", uint8(t))
	}
}

// ParseType converts a type name produced by Type.String back to a Type.
func ParseType(s string) (Type, error) {
	switch s {
	case "blob":
		return TypeBlob, nil
	case "tree":
		return TypeTree, nil
	case "commit":
		return TypeCommit, nil
	default:
		return TypeInvalid, fmt.Errorf("object: unknown type %q", s)
	}
}

// IDSize is the byte length of an object identifier.
const IDSize = sha256.Size

// ID identifies an object by the SHA-256 hash of its canonical encoding.
type ID [IDSize]byte

// ZeroID is the all-zero identifier; it never names a stored object and is
// used as a sentinel ("no object").
var ZeroID ID

// ErrBadID reports a malformed textual object ID.
var ErrBadID = errors.New("object: malformed id")

// String returns the full lower-case hex form of the ID.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// Short returns the 7-character abbreviated hex form, in the style of
// Git's short hashes (and of the "commitID" values in the paper's Listing 1).
func (id ID) Short() string { return id.String()[:7] }

// IsZero reports whether the ID is the zero sentinel.
func (id ID) IsZero() bool { return id == ZeroID }

// ParseID parses a full-length hex object ID.
func ParseID(s string) (ID, error) {
	var id ID
	if len(s) != IDSize*2 {
		return id, fmt.Errorf("%w: want %d hex chars, got %d", ErrBadID, IDSize*2, len(s))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("%w: %v", ErrBadID, err)
	}
	copy(id[:], b)
	return id, nil
}

// MustParseID is ParseID that panics on error. Intended for tests and
// constant-like initialisation.
func MustParseID(s string) ID {
	id, err := ParseID(s)
	if err != nil {
		panic(err)
	}
	return id
}

// HashBytes computes the ID of a canonical encoding. The encoding must have
// been produced by Encode (or be byte-identical to it); callers normally use
// Hash on an Object instead.
func HashBytes(data []byte) ID { return sha256.Sum256(data) }

// Object is implemented by Blob, Tree and Commit.
type Object interface {
	// Type reports the object's kind.
	Type() Type
	// encode appends the canonical payload (without the type/length header)
	// and is implemented by each concrete object type.
	encode(dst []byte) []byte
}

// Encode produces the canonical encoding of an object: an ASCII header
// "<type> <payload-len>\x00" followed by the payload. Hashing this encoding
// yields the object's ID.
func Encode(o Object) []byte {
	payload := o.encode(nil)
	var buf [maxHeaderLen]byte
	header := append(buf[:0], o.Type().String()...)
	header = append(header, ' ')
	header = strconv.AppendInt(header, int64(len(payload)), 10)
	header = append(header, 0)
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	return append(out, payload...)
}

// Hash returns the object's content-derived identifier.
func Hash(o Object) ID { return HashBytes(Encode(o)) }

// Decode parses a canonical encoding produced by Encode.
func Decode(data []byte) (Object, error) {
	typ, payload, err := splitHeader(data)
	if err != nil {
		return nil, err
	}
	switch typ {
	case TypeBlob:
		return decodeBlob(payload)
	case TypeTree:
		return decodeTree(payload)
	case TypeCommit:
		return decodeCommit(payload)
	default:
		return nil, fmt.Errorf("object: decode: unsupported type %v", typ)
	}
}

// DecodeTyped parses a canonical encoding and checks the object kind.
func DecodeTyped(data []byte, want Type) (Object, error) {
	o, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if o.Type() != want {
		return nil, fmt.Errorf("object: have %v, want %v", o.Type(), want)
	}
	return o, nil
}

// maxHeaderLen bounds "<type> <payload-len>\x00": the longest type name, a
// space, a 19-digit length and the terminator fit with room to spare.
const maxHeaderLen = 34

func splitHeader(data []byte) (Type, []byte, error) {
	nul := bytes.IndexByte(data[:min(len(data), maxHeaderLen)], 0)
	if nul < 0 {
		return TypeInvalid, nil, errors.New("object: missing header terminator")
	}
	name, num, ok := bytes.Cut(data[:nul], []byte{' '})
	length, err := strconv.Atoi(string(num))
	if !ok || err != nil {
		return TypeInvalid, nil, fmt.Errorf("object: bad header %q", data[:nul])
	}
	typ, err := ParseType(string(name))
	if err != nil {
		return TypeInvalid, nil, err
	}
	payload := data[nul+1:]
	if len(payload) != length {
		return TypeInvalid, nil, fmt.Errorf("object: header says %d payload bytes, have %d", length, len(payload))
	}
	return typ, payload, nil
}
