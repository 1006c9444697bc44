package rt

import "math/rand"

// LazySource is a math/rand Source64 that builds its stream at the first
// draw, not at Seed. Seeding a math/rand source runs 1 841 Lehmer steps
// over a 4.9 KB table; in the paper a processor draws coins only inside
// PoisonPill, and a doorway loser returns before its first flip, so a
// source seeded eagerly for every processor of every election is mostly
// setup nobody draws from. Seed only records the seed; the first Int63 or
// Uint64 after it allocates the math/rand source (once per LazySource) or
// reseeds it, on the drawing goroutine.
//
// Every draw is the math/rand source's own, delegated unchanged — Int63 to
// Int63, Uint64 to Uint64 — so a LazySource seeded with s yields exactly the
// stream of rand.NewSource(s), draw for draw, whatever mix of methods reads
// it. The zero value is a source seeded with 0. Like rand.NewSource's, it is
// not safe for concurrent use.
type LazySource struct {
	src   rand.Source64 // nil until the first draw
	seed  int64
	ready bool // src holds seed's stream
}

// NewRand returns a *rand.Rand over a LazySource seeded with seed: the
// stream of rand.New(rand.NewSource(seed)), paid for at its first draw.
func NewRand(seed int64) *rand.Rand {
	return rand.New(&LazySource{seed: seed})
}

// Seed implements rand.Source: it records seed for the next draw.
func (s *LazySource) Seed(seed int64) { s.seed, s.ready = seed, false }

// Int63 implements rand.Source.
func (s *LazySource) Int63() int64 {
	if !s.ready {
		s.build()
	}
	return s.src.Int63()
}

// Uint64 implements rand.Source64.
func (s *LazySource) Uint64() uint64 {
	if !s.ready {
		s.build()
	}
	return s.src.Uint64()
}

// Seeded reports whether the stream of the last Seed has been built: false
// from Seed until the next draw.
func (s *LazySource) Seeded() bool { return s.ready }

func (s *LazySource) build() {
	if s.src == nil {
		s.src = rand.NewSource(s.seed).(rand.Source64)
	} else {
		s.src.Seed(s.seed)
	}
	s.ready = true
}
