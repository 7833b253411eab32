package store

import (
	"fmt"
	"testing"
)

// BenchmarkStore times the index operations the service issues per
// request — a new artifact, a lookup of an unknown ID and the model
// listing behind /healthz — at two store sizes. Run with
// `make bench-store`.
func BenchmarkStore(b *testing.B) {
	for _, n := range []int{100, 4000} {
		open := func(b *testing.B) *Store {
			dir := b.TempDir()
			seedManifest(b, dir, n)
			s, err := Open(dir)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			return s
		}
		b.Run(fmt.Sprintf("Put/n=%d", n), func(b *testing.B) {
			s := open(b)
			for i := 0; i < b.N; i++ {
				if _, err := s.PutRaw(KindOutcomes, []byte(fmt.Sprintf(`{"i":%d}`, i)), nil); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("ResolveMiss/n=%d", n), func(b *testing.B) {
			s := open(b)
			for i := 0; i < b.N; i++ {
				if _, err := s.Resolve(missingID); err == nil {
					b.Fatal("missing ID resolved")
				}
			}
		})
		b.Run(fmt.Sprintf("Models/n=%d", n), func(b *testing.B) {
			s := open(b)
			for i := 0; i < b.N; i++ {
				if len(s.Models()) != n {
					b.Fatal("Models lost entries")
				}
			}
		})
	}
}
