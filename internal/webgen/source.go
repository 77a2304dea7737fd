package webgen

import "math/rand"

// Every per-item stream of the generator — a site profile, a bundle
// profile, a site's rendering choices, a library's filler code and the
// per-(site, week) rolls — is a math/rand v1 source seeded for that item,
// of which only the first few dozen draws are ever taken. Seeding a real
// source fills a 607-word register, about 1,800 LCG steps, so seededSource
// computes the draws it needs straight from the seed instead.
//
// rand.NewSource(s) fills its register from the Lehmer LCG
// x ← 48271·x mod (2³¹−1), started at the normalised seed x₀: word i is
// x₂₁₊₃ᵢ<<40 ^ x₂₂₊₃ᵢ<<20 ^ x₂₃₊₃ᵢ ^ rngCooked[i], with
// xₖ = x₀·48271ᵏ mod (2³¹−1). Draw k reads word[333−k] and word[606−k],
// returns their sum and stores it back in word[333−k]. Draw 273 is the
// first to read a stored word (word[333], written by draw 0), so draws 0 to
// 272 are each two register words of the freshly seeded source. The Go 1
// compatibility promise freezes that stream (math/rand keeps its seeded
// sequence stable across releases); TestSeededSourceMatchesMathRand,
// FuzzSeededSource, TestFirstDrawMatchesMathRand and FuzzFirstDraw hold it
// to the real source.
const (
	lcgModulus = 1<<31 - 1
	lcgMul     = 48271
	// rngLen is the register length and rngTap the lag of math/rand's
	// additive generator; draw k reads words rngLen−rngTap−1−k and
	// rngLen−1−k.
	rngLen = 607
	rngTap = 273
)

// wordPow[i] is 48271²¹⁺³ⁱ mod (2³¹−1): the jump from x₀ to the first of
// the three LCG states register word i is built from.
var wordPow = func() (p [rngLen]uint64) {
	x := uint64(1)
	for k := 0; k < 20; k++ {
		x = x * lcgMul % lcgModulus
	}
	for i := range p {
		x = x * lcgMul % lcgModulus
		p[i] = x
		x = x * lcgMul % lcgModulus * lcgMul % lcgModulus
	}
	return p
}()

// lcgState normalises a seed to the LCG state rand.NewSource starts from.
func lcgState(seed int64) uint64 {
	x := seed % lcgModulus
	if x < 0 {
		x += lcgModulus
	}
	if x == 0 {
		x = 89482311
	}
	return uint64(x)
}

// seededWord is register word i of a source freshly seeded at LCG state
// x0. x0 and every state are below 2³¹, so each product fits in 64 bits.
func seededWord(x0 uint64, i int) int64 {
	a := x0 * wordPow[i] % lcgModulus
	b := a * lcgMul % lcgModulus
	c := b * lcgMul % lcgModulus
	return int64(a)<<40 ^ int64(b)<<20 ^ int64(c) ^ rngCooked[i]
}

// seededDraw is draw k < rngTap of a source freshly seeded at x0.
func seededDraw(x0 uint64, k int) uint64 {
	return uint64(seededWord(x0, rngLen-rngTap-1-k) + seededWord(x0, rngLen-1-k))
}

// seededSource is a rand.Source64 that equals rand.NewSource(seed) draw for
// draw. Its first rngTap draws cost two register words each; at draw
// rngTap it seeds a real source, advances it past those draws and goes on
// from there.
type seededSource struct {
	x0   uint64
	n    int
	tail rand.Source64
}

// newStream returns rand.New(rand.NewSource(seed)), computed by jump-ahead.
func newStream(seed int64) *rand.Rand {
	return rand.New(&seededSource{x0: lcgState(seed)})
}

func (s *seededSource) Seed(seed int64) { *s = seededSource{x0: lcgState(seed)} }

func (s *seededSource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }

func (s *seededSource) Uint64() uint64 {
	if s.n < rngTap {
		s.n++
		return seededDraw(s.x0, s.n-1)
	}
	if s.tail == nil {
		// rand.NewSource normalises x0 to itself.
		s.tail = rand.NewSource(int64(s.x0)).(rand.Source64)
		for k := 0; k < rngTap; k++ {
			s.tail.Uint64()
		}
	}
	return s.tail.Uint64()
}

// firstInt63 returns rand.NewSource(seed).Int63() in O(1).
func firstInt63(seed int64) int64 {
	return int64(seededDraw(lcgState(seed), 0) & (1<<63 - 1))
}

// firstFloat64 returns rand.New(rand.NewSource(seed)).Float64().
func firstFloat64(seed int64) float64 {
	if f := float64(firstInt63(seed)) / (1 << 63); f < 1 {
		return f
	}
	// The quotient rounded up to 1, where Float64 draws again. A seed
	// normalises to one of 2³¹−1 LCG states, and an exhaustive pass over
	// them found none whose first Int63 comes within 4·10⁹ of 2⁶³, so this
	// only guards the equivalence.
	return newStream(seed).Float64()
}

// firstIntn4 returns rand.New(rand.NewSource(seed)).Intn(4). For a power of
// two, Intn masks the low bits of Int31, the top 31 bits of the first Int63.
func firstIntn4(seed int64) int {
	return int(int32(firstInt63(seed)>>32) & 3)
}
