package object

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"
)

// Signature records who performed an action and when. Times are stored at
// second precision in UTC so encodings are deterministic across machines.
type Signature struct {
	Name  string
	Email string
	When  time.Time
}

// NewSignature creates a signature, normalising the time to UTC seconds.
func NewSignature(name, email string, when time.Time) Signature {
	return Signature{Name: name, Email: email, When: when.UTC().Truncate(time.Second)}
}

// String renders "Name <email> <unix-seconds>".
func (s Signature) String() string {
	return fmt.Sprintf("%s <%s> %d", s.Name, s.Email, s.When.Unix())
}

func parseSignature(s string) (Signature, error) {
	lt := strings.IndexByte(s, '<')
	gt := strings.LastIndexByte(s, '>')
	if lt < 0 || gt < lt {
		return Signature{}, fmt.Errorf("object: bad signature %q", s)
	}
	name := strings.TrimSpace(s[:lt])
	email := s[lt+1 : gt]
	unix, err := strconv.ParseInt(strings.TrimSpace(s[gt+1:]), 10, 64)
	if err != nil {
		return Signature{}, fmt.Errorf("object: bad signature time in %q", s)
	}
	return Signature{Name: name, Email: email, When: time.Unix(unix, 0).UTC()}, nil
}

// Commit snapshots a project version: a root tree plus the parent commits it
// was derived from. A commit with two parents is a merge; the version DAG of
// the paper's citation model is exactly the commit DAG.
type Commit struct {
	TreeID    ID
	Parents   []ID
	Author    Signature
	Committer Signature
	Message   string
}

// Type reports TypeCommit.
func (c *Commit) Type() Type { return TypeCommit }

// ID returns the commit's content-derived identifier.
func (c *Commit) ID() ID { return Hash(c) }

// IsMerge reports whether the commit has more than one parent.
func (c *Commit) IsMerge() bool { return len(c.Parents) > 1 }

// Summary returns the first line of the commit message.
func (c *Commit) Summary() string {
	if i := strings.IndexByte(c.Message, '\n'); i >= 0 {
		return c.Message[:i]
	}
	return c.Message
}

// Canonical commit encoding, one header per line followed by a blank line
// and the message:
//
//	tree <hex>
//	parent <hex>          (zero or more)
//	author <sig>
//	committer <sig>
//
//	<message>
func (c *Commit) encode(dst []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "tree %s\n", c.TreeID)
	for _, p := range c.Parents {
		fmt.Fprintf(&b, "parent %s\n", p)
	}
	fmt.Fprintf(&b, "author %s\n", c.Author)
	fmt.Fprintf(&b, "committer %s\n", c.Committer)
	b.WriteByte('\n')
	b.WriteString(c.Message)
	return append(dst, b.Bytes()...)
}

func decodeCommit(payload []byte) (*Commit, error) {
	c := &Commit{}
	sep := bytes.Index(payload, []byte("\n\n"))
	if sep < 0 {
		return nil, errors.New("object: commit missing header/message separator")
	}
	header, message := payload[:sep], payload[sep+2:]
	c.Message = string(message) // verbatim, so Encode∘Decode is the identity

	// Headers are iterated in place — a bufio.Scanner here cost a fresh
	// 64 KB buffer per decode, which dominated every cache-missing commit
	// read (abbreviated-rev resolution, history walks) at scale.
	sawTree, sawAuthor, sawCommitter := false, false, false
	for len(header) > 0 {
		var lineBytes []byte
		if i := bytes.IndexByte(header, '\n'); i >= 0 {
			lineBytes, header = header[:i], header[i+1:]
		} else {
			lineBytes, header = header, nil
		}
		line := string(lineBytes)
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("object: commit header %q missing value", line)
		}
		switch key {
		case "tree":
			id, err := ParseID(val)
			if err != nil {
				return nil, err
			}
			c.TreeID = id
			sawTree = true
		case "parent":
			id, err := ParseID(val)
			if err != nil {
				return nil, err
			}
			c.Parents = append(c.Parents, id)
		case "author":
			sig, err := parseSignature(val)
			if err != nil {
				return nil, err
			}
			c.Author = sig
			sawAuthor = true
		case "committer":
			sig, err := parseSignature(val)
			if err != nil {
				return nil, err
			}
			c.Committer = sig
			sawCommitter = true
		default:
			return nil, fmt.Errorf("object: unknown commit header %q", key)
		}
	}
	if !sawTree || !sawAuthor || !sawCommitter {
		return nil, errors.New("object: commit missing required header")
	}
	return c, nil
}
