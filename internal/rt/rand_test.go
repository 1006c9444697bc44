package rt

import (
	"math/rand"
	"testing"
)

// TestLazySourceMatchesMathRand: a Rand over a LazySource is math/rand's own
// stream for the seed, draw for draw, through every method mix — Int63 and
// Uint64 are separate methods of the underlying source, and Read buffers —
// across Seeds mid-stream and Seeds with no draw between them. The zero
// value is seed 0.
func TestLazySourceMatchesMathRand(t *testing.T) {
	var zero LazySource
	if g, w := rand.New(&zero).Int63(), rand.New(rand.NewSource(0)).Int63(); g != w {
		t.Fatalf("zero LazySource drew %d, rand.NewSource(0) %d", g, w)
	}
	got, want := NewRand(-7), rand.New(rand.NewSource(-7))
	check := func(label string) {
		t.Helper()
		var gb, wb [5]byte
		for d := 0; d < 50; d++ {
			var g, w uint64
			switch d % 6 {
			case 0:
				g, w = uint64(got.Int63()), uint64(want.Int63())
			case 1:
				g, w = got.Uint64(), want.Uint64()
			case 2:
				g, w = uint64(got.Intn(97)), uint64(want.Intn(97))
			case 3:
				g, w = uint64(got.Float64()*1e9), uint64(want.Float64()*1e9)
			case 4:
				got.Read(gb[:])
				want.Read(wb[:])
				if gb != wb {
					t.Fatalf("%s: Read %d: %v, math/rand %v", label, d, gb, wb)
				}
			default:
				g, w = uint64(got.NormFloat64()*1e9), uint64(want.NormFloat64()*1e9)
			}
			if g != w {
				t.Fatalf("%s: draw %d: %d, math/rand %d", label, d, g, w)
			}
		}
	}
	check("seed -7")
	for _, seed := range []int64{3, 1 << 40} { // reseeded mid-stream, then again with no draw between
		got.Seed(seed)
		want.Seed(seed)
	}
	check("reseeded")
}

// TestLazySourceSeedsAtFirstDraw: Seed builds nothing; the first draw
// builds the stream, and a later Seed only marks it stale again.
func TestLazySourceSeedsAtFirstDraw(t *testing.T) {
	var s LazySource
	s.Seed(5)
	if s.Seeded() || s.src != nil {
		t.Fatal("Seed built the stream before any draw")
	}
	s.Uint64()
	if !s.Seeded() {
		t.Fatal("a draw left the stream unbuilt")
	}
	src := s.src
	s.Seed(6)
	if s.Seeded() {
		t.Fatal("a reseed left the old stream marked current")
	}
	s.Int63()
	if s.src != src {
		t.Fatal("a reseed allocated a new source instead of reseeding the one it had")
	}
}
