package object

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// modeOracle is the encoding Mode.String had before it stopped going
// through fmt; every mode must still produce exactly these bytes.
func modeOracle(m Mode) string { return fmt.Sprintf("%06o", uint32(m)) }

func TestModeStringMatchesFmtOracle(t *testing.T) {
	check := func(m Mode) {
		t.Helper()
		want := modeOracle(m)
		if got := m.String(); got != want {
			t.Fatalf("Mode(%d).String() = %q, want %q", uint32(m), got, want)
		}
		if got := string(m.appendOctal([]byte("x"))); got != "x"+want {
			t.Fatalf("Mode(%d).appendOctal = %q, want %q", uint32(m), got, "x"+want)
		}
	}
	for _, m := range []Mode{ModeFile, ModeExecutable, ModeSymlink, ModeDir, 0, 7, 0o77777, 0o777777, 0o1000000, math.MaxUint32} {
		check(m)
	}
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 10000; i++ {
		check(Mode(rng.Uint32()))
		check(Mode(rng.Uint32() >> uint(rng.Intn(32)))) // short values need padding
	}
}

// TestTreeEncodeAllocsIndependentOfWidth pins that encoding a tree costs
// the same allocations at any entry count: the payload is sized up front
// and modes are appended in place.
func TestTreeEncodeAllocsIndependentOfWidth(t *testing.T) {
	tree := func(n int) *Tree {
		entries := make([]TreeEntry, n)
		for i := range entries {
			mode := ModeFile
			if i%3 == 0 {
				mode = ModeDir
			}
			entries[i] = TreeEntry{Name: fmt.Sprintf("entry-%03d.txt", i), Mode: mode, ID: HashBytes([]byte{byte(i)})}
		}
		tr, err := NewTree(entries)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	small, wide := tree(4), tree(64)
	allocs := func(tr *Tree) float64 { return testing.AllocsPerRun(100, func() { Encode(tr) }) }
	if a, b := allocs(small), allocs(wide); a != b {
		t.Fatalf("Encode allocations: %v for 4 entries, %v for 64", a, b)
	}
}
