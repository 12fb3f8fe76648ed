package core

import (
	"errors"
	"fmt"
	"sort"
)

// MergeConflict is one key conflict discovered by Merge: the same path
// carries different citations on the two sides (paper §3: "Conflicts over
// the values associated with the same key in the new citation.cite file").
type MergeConflict struct {
	Path   string
	Ours   Citation
	Theirs Citation
	// Base is the citation at the path in the merge-base version's
	// function, if a base function was supplied and has the entry.
	Base    Citation
	HasBase bool
}

// Strategy selects how Merge settles key conflicts.
type Strategy uint8

// Conflict-resolution strategies.
const (
	// StrategyAsk defers every conflict to the Resolver callback — the
	// paper's demo behaviour ("showing them to the user and asking the user
	// to resolve the conflict").
	StrategyAsk Strategy = iota
	// StrategyOurs keeps the receiving side's citation.
	StrategyOurs
	// StrategyTheirs keeps the incoming side's citation.
	StrategyTheirs
	// StrategyNewest keeps the citation with the later CommittedDate,
	// falling back to ours on ties.
	StrategyNewest
	// StrategyThreeWay mirrors Git's three-way merge (paper §5 future
	// work): a side that left the base citation unchanged yields to the
	// side that changed it; conflicts remain only when both sides changed
	// the same entry differently, and those go to the Resolver.
	StrategyThreeWay
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyAsk:
		return "ask"
	case StrategyOurs:
		return "ours"
	case StrategyTheirs:
		return "theirs"
	case StrategyNewest:
		return "newest"
	case StrategyThreeWay:
		return "three-way"
	default:
		return "unknown"
	}
}

// MergeOptions configures Merge.
type MergeOptions struct {
	Strategy Strategy
	// Resolver settles conflicts under StrategyAsk, and residual conflicts
	// under StrategyThreeWay. It may return a hand-edited citation.
	Resolver func(MergeConflict) (Citation, error)
	// Base is the merge-base version's citation function; required by
	// StrategyThreeWay, consulted to fill MergeConflict.Base otherwise.
	Base *Function
}

// ErrUnresolvedConflict reports a conflict with no way to settle it (no
// resolver under StrategyAsk).
var ErrUnresolvedConflict = errors.New("core: unresolved citation merge conflict")

// MergeResult reports what Merge did.
type MergeResult struct {
	// Function is the merged citation function.
	Function *Function
	// Conflicts lists every key conflict encountered (even when the
	// strategy settled it automatically).
	Conflicts []MergeConflict
	// Pruned lists entries dropped because their paths are absent from the
	// merged tree.
	Pruned []string
}

// Merge implements the citation half of MergeCite (paper §3): the union of
// the two citation functions, minus entries whose paths were deleted by the
// tree merge, with key conflicts settled by the configured strategy. The
// root entry always comes from ours (the branch being merged into), unless
// both sides modified it relative to the base under StrategyThreeWay.
//
// mergedTree is the version tree produced by the file-level merge; it
// drives pruning and must be non-nil.
func Merge(ours, theirs *Function, mergedTree Tree, opts MergeOptions) (MergeResult, error) {
	if opts.Strategy == StrategyThreeWay && opts.Base == nil {
		return MergeResult{}, errors.New("core: StrategyThreeWay requires MergeOptions.Base")
	}

	// Clone is copy-on-write; detach the merged function up front since the
	// loop below edits its entry map directly. out is private to this call,
	// so the direct writes need no locking once detached.
	out := ours.Clone()
	out.mu.Lock()
	out.prepareWriteLocked()
	out.mu.Unlock()
	var baseEntries map[string]*Record
	if opts.Base != nil {
		baseEntries = opts.Base.snapshot()
	}
	var conflicts []MergeConflict

	// Entries pass from either side into the merged function as the shared
	// records they are, so encoding it reuses both sides' memoised entries.
	for p, theirR := range theirs.snapshot() {
		ourR, inOurs := out.entries[p]
		if !inOurs {
			out.entries[p] = theirR
			continue
		}
		if ourR.equal(theirR) {
			continue
		}
		c := MergeConflict{Path: p, Ours: ourR.cite.Clone(), Theirs: theirR.cite.Clone()}
		if baseR, ok := baseEntries[p]; ok {
			c.Base = baseR.cite.Clone()
			c.HasBase = true
		}
		conflicts = append(conflicts, c)

		chosen, err := settle(c, opts, ourR, theirR)
		if err != nil {
			return MergeResult{}, fmt.Errorf("%s: %w", p, err)
		}
		if chosen.cite.IsZero() {
			return MergeResult{}, fmt.Errorf("%s: %w", p, ErrEmptyCitation)
		}
		if p == "/" {
			if err := chosen.cite.ValidateRoot(); err != nil {
				return MergeResult{}, err
			}
		}
		out.entries[p] = chosen
	}

	pruned := out.Prune(mergedTree)
	if err := out.Validate(mergedTree); err != nil {
		return MergeResult{}, fmt.Errorf("core: merged function invalid: %w", err)
	}
	sortMergeConflicts(conflicts)
	return MergeResult{Function: out, Conflicts: conflicts, Pruned: pruned}, nil
}

// settle picks the record a conflict resolves to: one of the two sides'
// own records, or a new one for a citation the resolver returned.
func settle(c MergeConflict, opts MergeOptions, ours, theirs *Record) (*Record, error) {
	switch opts.Strategy {
	case StrategyOurs:
		return ours, nil
	case StrategyTheirs:
		return theirs, nil
	case StrategyNewest:
		if c.Theirs.CommittedDate.After(c.Ours.CommittedDate) {
			return theirs, nil
		}
		return ours, nil
	case StrategyThreeWay:
		if c.HasBase {
			oursChanged := !c.Ours.Equal(c.Base)
			theirsChanged := !c.Theirs.Equal(c.Base)
			switch {
			case !oursChanged && theirsChanged:
				return theirs, nil
			case oursChanged && !theirsChanged:
				return ours, nil
			}
		}
		// Both changed (or no base entry): residual conflict.
		return resolveOrFail(c, opts)
	case StrategyAsk:
		return resolveOrFail(c, opts)
	default:
		return nil, fmt.Errorf("core: unknown merge strategy %d", opts.Strategy)
	}
}

func resolveOrFail(c MergeConflict, opts MergeOptions) (*Record, error) {
	if opts.Resolver == nil {
		return nil, ErrUnresolvedConflict
	}
	chosen, err := opts.Resolver(c)
	if err != nil {
		return nil, err
	}
	return NewRecord(chosen.Clone()), nil
}

func sortMergeConflicts(s []MergeConflict) {
	sort.Slice(s, func(i, j int) bool { return s[i].Path < s[j].Path })
}
