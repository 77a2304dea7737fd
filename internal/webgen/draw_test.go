package webgen

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// firstDrawSource is a math/rand v1 source that remembers its first Int63
// since the last Seed.
type firstDrawSource struct {
	rand.Source
	first int64
	drawn bool
}

func (s *firstDrawSource) Seed(seed int64) { s.Source.Seed(seed); s.drawn = false }

func (s *firstDrawSource) Int63() int64 {
	v := s.Source.Int63()
	if !s.drawn {
		s.first, s.drawn = v, true
	}
	return v
}

// constSource answers every Int63 with one value.
type constSource int64

func (c constSource) Int63() int64 { return int64(c) }
func (constSource) Seed(int64)     {}

// checkFirstDraw compares the jump-ahead draws of one seed with
// rand.New(rand.NewSource(seed)).Float64() and .Intn(4), and returns the
// first mismatch. src is reseeded, so one source serves many seeds; Intn(4)
// takes exactly one Int63, so it runs on a replay of the source's first
// draw instead of paying for a second seeding.
func checkFirstDraw(src *firstDrawSource, seed int64) (ok bool, got, want any) {
	src.Seed(seed)
	if g, w := firstFloat64(seed), rand.New(src).Float64(); g != w {
		return false, g, w
	}
	if g, w := firstIntn4(seed), rand.New(constSource(src.first)).Intn(4); g != w {
		return false, g, w
	}
	return true, nil, nil
}

func TestFirstDrawMatchesMathRand(t *testing.T) {
	const m = lcgModulus
	seeds := []int64{
		0, 1, -1, m, -m, m - 1, -(m - 1), m + 1, -(m + 1),
		2 * m, -2 * m, 3 * m, 1 << 31, -1 << 31, 1<<62 - 1,
		math.MaxInt64 / m * m, math.MinInt64 / m * m,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	}
	stream := rand.New(rand.NewSource(20180305))
	for len(seeds) < 1_000_000 {
		seeds = append(seeds, int64(stream.Uint64()))
	}

	// Seeding a real source costs microseconds, so split the million
	// seeds across the available cores.
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var mu sync.Mutex
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			src := &firstDrawSource{Source: rand.NewSource(0)}
			for i := k; i < len(seeds); i += workers {
				if ok, got, want := checkFirstDraw(src, seeds[i]); !ok {
					mu.Lock()
					t.Errorf("seed %d: jump-ahead draw %v, math/rand %v", seeds[i], got, want)
					mu.Unlock()
					return
				}
			}
		}(k)
	}
	wg.Wait()

	// The per-(site, week) wrappers draw from the mixed seed.
	for site := int64(0); site < 50; site++ {
		for week := 0; week < 201; week += 7 {
			if got, want := failRoll(site, week), rand.New(rand.NewSource(mix(site, int64(week), 0x7fa11))).Float64(); got != want {
				t.Fatalf("failRoll(%d, %d) = %v, want %v", site, week, got, want)
			}
			want := [4]int{403, 404, 500, 503}[rand.New(rand.NewSource(mix(site, int64(week), 0x57a7))).Intn(4)]
			if got := transientStatus(site, week); got != want {
				t.Fatalf("transientStatus(%d, %d) = %d, want %d", site, week, got, want)
			}
		}
	}
}

func FuzzFirstDraw(f *testing.F) {
	for _, s := range []int64{0, 1, -1, lcgModulus, -lcgModulus, math.MinInt64, math.MaxInt64} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if ok, got, want := checkFirstDraw(&firstDrawSource{Source: rand.NewSource(0)}, seed); !ok {
			t.Fatalf("seed %d: jump-ahead draw %v, math/rand %v", seed, got, want)
		}
	})
}

var rollSink float64

func BenchmarkFailRoll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rollSink = failRoll(int64(i), i%201)
	}
}
