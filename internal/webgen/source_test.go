package webgen

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// streamIntn holds the Intn bounds the stream checks draw with: powers of
// two take one Int31 each, other bounds run Int31n's rejection loop (which
// rejects nearly half of all draws at 1<<30+1), and 3<<40 takes Int63n.
var streamIntn = []int{1, 2, 3, 4, 5, 7, 97, 251, 1000, 1<<30 + 1, 1<<31 - 1, 3 << 40}

// checkStream drives newStream(seed) and rand.New(rand.NewSource(seed))
// through the same sequence of calls — one per op byte, then 300 Int63s,
// so draw rngTap is always crossed — and returns the first mismatch.
func checkStream(seed int64, ops []byte) error {
	got, want := newStream(seed), rand.New(rand.NewSource(seed))
	for i, op := range ops {
		var g, w any
		switch op % 4 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = got.Float64(), want.Float64()
		case 2:
			g, w = got.Uint64(), want.Uint64()
		default:
			n := streamIntn[int(op/4)%len(streamIntn)]
			g, w = got.Intn(n), want.Intn(n)
		}
		if g != w {
			return fmt.Errorf("seed %d op %d (%d): got %v, want %v", seed, i, op, g, w)
		}
	}
	for k := 0; k < 300; k++ {
		if g, w := got.Int63(), want.Int63(); g != w {
			return fmt.Errorf("seed %d: Int63 %d after the ops: got %d, want %d", seed, k, g, w)
		}
	}
	return nil
}

func TestSeededSourceMatchesMathRand(t *testing.T) {
	const m = lcgModulus
	seeds := []int64{
		0, 1, -1, m, -m, m - 1, -(m - 1), m + 1, -(m + 1), 89482311, -89482311,
		math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1,
	}
	stream := rand.New(rand.NewSource(20180305))
	for len(seeds) < 2000 {
		seeds = append(seeds, int64(stream.Uint64()))
	}
	for i, seed := range seeds {
		// Plain Int63 draws first, then a mixed sequence of calls.
		if err := checkStream(seed, nil); err != nil {
			t.Fatal(err)
		}
		ops := make([]byte, stream.Intn(120))
		stream.Read(ops)
		if err := checkStream(seed, ops); err != nil {
			t.Fatal(err)
		}
		// Seed restarts the stream, whatever was drawn before.
		src := &seededSource{x0: lcgState(seeds[(i+1)%len(seeds)])}
		for k := 0; k < i%400; k++ {
			src.Uint64()
		}
		src.Seed(seed)
		ref := rand.NewSource(seed)
		for k := 0; k < 300; k++ {
			if g, w := src.Int63(), ref.Int63(); g != w {
				t.Fatalf("seed %d, reseeded: draw %d = %d, want %d", seed, k, g, w)
			}
		}
	}
}

func FuzzSeededSource(f *testing.F) {
	for _, s := range []int64{0, 1, -1, lcgModulus, -lcgModulus, 89482311, math.MinInt64, math.MaxInt64} {
		f.Add(s, []byte{3, 7, 11, 1, 2, 0, 43, 47})
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if err := checkStream(seed, ops); err != nil {
			t.Fatal(err)
		}
	})
}

var streamSink int

// BenchmarkSiteURLStyle is one rendering-stream draw: a seeded source and
// one Intn(3), the per-render cost the jump-ahead removes.
func BenchmarkSiteURLStyle(b *testing.B) {
	s := &Site{}
	for i := 0; i < b.N; i++ {
		s.seed = int64(i)
		streamSink += int(siteURLStyle(s))
	}
}
