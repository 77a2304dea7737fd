package semver

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestParseBasic(t *testing.T) {
	cases := []struct {
		in    string
		parts []int
		pre   string
	}{
		{"1.12.4", []int{1, 12, 4}, ""},
		{"2.2", []int{2, 2}, ""},
		{"3", []int{3}, ""},
		{"1.6.0.1", []int{1, 6, 0, 1}, ""},
		{"v3.6.0", []int{3, 6, 0}, ""},
		{"3.0.0-rc1", []int{3, 0, 0}, "rc1"},
		{"1.0b2", []int{1, 0}, "b2"},
		{"0.0.0", []int{0, 0, 0}, ""},
		{"10.20.30.40", []int{10, 20, 30, 40}, ""},
		{" 1.2.3 ", []int{1, 2, 3}, ""},
		{"2.29.1", []int{2, 29, 1}, ""},
	}
	for _, c := range cases {
		v, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(v.Parts, c.parts) || v.Pre != c.pre {
			t.Errorf("Parse(%q) = parts %v pre %q, want %v %q", c.in, v.Parts, v.Pre, c.parts, c.pre)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "1..2", ".", "1.2.", "v", "-rc1", "1.2.x"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q): expected error", in)
		}
	}
}

func TestCompare(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"1.9", "1.9.0", 0},
		{"1.9.0", "1.9.1", -1},
		{"1.12.4", "1.9.1", 1},     // numeric, not lexical
		{"3.0.0-rc1", "3.0.0", -1}, // pre-release before release
		{"3.0.0-a", "3.0.0-b", -1},
		{"1.6.0.1", "1.6.0", 1},
		{"2.2", "2.2.4", -1},
		{"1.0.3", "1.0.3", 0},
		{"10.0", "9.9.9", 1},
	}
	for _, c := range cases {
		a, b := MustParse(c.a), MustParse(c.b)
		if got := a.Compare(b); got != c.want {
			t.Errorf("Compare(%s,%s) = %d, want %d", c.a, c.b, got, c.want)
		}
		if got := b.Compare(a); got != -c.want {
			t.Errorf("Compare(%s,%s) = %d, want %d", c.b, c.a, got, -c.want)
		}
	}
}

func TestAccessors(t *testing.T) {
	if got := MustParse("1.12.4").Major(); got != 1 {
		t.Errorf("Major of 1.12.4 = %d", got)
	}
	if got := MustParse("3").Major(); got != 3 {
		t.Errorf("Major of 3 = %d", got)
	}
}

func TestStringRoundTrip(t *testing.T) {
	for _, s := range []string{"1.12.4", "2.2", "3", "1.6.0.1", "3.0.0-rc1"} {
		if got := MustParse(s).String(); got != s {
			t.Errorf("String round-trip: %q -> %q", s, got)
		}
	}
}

func TestCanonical(t *testing.T) {
	cases := map[string]string{
		"1.9":     "1.9.0",
		"3":       "3.0.0",
		"1.12.4":  "1.12.4",
		"1.6.0.1": "1.6.0.1",
		"2.0-rc1": "2.0.0-rc1",
		"v3.5.0":  "3.5.0",
	}
	for in, want := range cases {
		if got := MustParse(in).Canonical(); got != want {
			t.Errorf("Canonical(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestCanonicalEquivalence(t *testing.T) {
	a, b := MustParse("1.9"), MustParse("1.9.0")
	if a.Canonical() != b.Canonical() {
		t.Errorf("canonical forms differ for equal versions: %q vs %q", a.Canonical(), b.Canonical())
	}
	if !a.Equal(b) {
		t.Error("1.9 should equal 1.9.0")
	}
}

func TestSortAndMinMax(t *testing.T) {
	vs := []Version{MustParse("3.5.0"), MustParse("1.12.4"), MustParse("1.9"), MustParse("2.2.4"), MustParse("1.9.1")}
	Sort(vs)
	want := []string{"1.9", "1.12.4", "2.2.4", "3.5.0"}
	got := []string{vs[0].String(), vs[2].String(), vs[3].String(), vs[4].String()}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("Sort order[%d] = %s, want %s (full: %v)", i, got[i], want[i], vs)
		}
	}
	if Max(vs[0], vs[4]).String() != "3.5.0" {
		t.Error("Max wrong")
	}
	if Min(vs[0], vs[4]).String() != "1.9" {
		t.Error("Min wrong")
	}
}

func TestIsZero(t *testing.T) {
	var z Version
	if !z.IsZero() {
		t.Error("zero Version should report IsZero")
	}
	if MustParse("0").IsZero() {
		t.Error("parsed 0 is not the zero value")
	}
}

// randomVersion builds an arbitrary version from a rand source.
func randomVersion(r *rand.Rand) Version {
	n := 1 + r.Intn(4)
	parts := make([]int, n)
	for i := range parts {
		parts[i] = r.Intn(30)
	}
	pre := ""
	if r.Intn(5) == 0 {
		pre = string(rune('a' + r.Intn(3)))
	}
	return Version{Parts: parts, Pre: pre}
}

// Property: Compare is antisymmetric.
func TestQuickCompareAntisymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomVersion(r), randomVersion(r)
		return a.Compare(b) == -b.Compare(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is transitive over a sorted triple.
func TestQuickCompareTransitive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		vs := []Version{randomVersion(r), randomVersion(r), randomVersion(r)}
		Sort(vs)
		return vs[0].Compare(vs[1]) <= 0 && vs[1].Compare(vs[2]) <= 0 && vs[0].Compare(vs[2]) <= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: canonical form parses back to an equal version.
func TestQuickCanonicalRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomVersion(r)
		w, err := Parse(v.Canonical())
		return err == nil && v.Equal(w)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
