package refs

import (
	"testing"

	"github.com/gitcite/gitcite/internal/vcs/object"
)

// BenchmarkFileStoreSet moves one existing branch back and forth between
// two commits: the write every commit ends with.
func BenchmarkFileStoreSet(b *testing.B) {
	s, err := NewFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	ids := [2]object.ID{object.NewBlobString("a").ID(), object.NewBlobString("b").ID()}
	if err := s.Set("refs/heads/main", ids[1]); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Set("refs/heads/main", ids[i&1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFileStoreGet reads one branch.
func BenchmarkFileStoreGet(b *testing.B) {
	s, err := NewFileStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	want := object.NewBlobString("a").ID()
	if err := s.Set("refs/heads/main", want); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got, err := s.Get("refs/heads/main"); err != nil || got != want {
			b.Fatalf("Get = %v, %v", got, err)
		}
	}
}
