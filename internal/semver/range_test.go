package semver

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseRangeForms(t *testing.T) {
	cases := []struct {
		expr    string
		in, out []string // versions inside / outside the range
	}{
		{"< 1.9.0", []string{"1.8.3", "1.0", "1.8.99"}, []string{"1.9.0", "1.9.1", "3.6.0"}},
		{"<= 1.7.3", []string{"1.7.3", "1.0"}, []string{"1.7.4", "2.0"}},
		{">= 1.2.0 < 3.5.0", []string{"1.2.0", "2.2.4", "3.4.9"}, []string{"1.1.9", "3.5.0", "3.5.1"}},
		{"1.0.3 ~ 3.5.0", []string{"1.0.3", "3.4.1"}, []string{"1.0.2", "3.5.0"}},
		{"1.4.2 ~ 1.6.2", []string{"1.4.2", "1.6.1"}, []string{"1.6.2", "1.4.1"}},
		{"< 3.4.1, >= 4.0.0 < 4.3.1", []string{"3.3.7", "4.1.2", "3.4.0"}, []string{"3.4.1", "4.3.1", "3.9.9"}},
		{"*", []string{"0.1", "99.0"}, nil},
		{"all", []string{"1.7.3", "0.0.1"}, nil},
		{"= 2.2", []string{"2.2", "2.2.0"}, []string{"2.2.1", "2.1"}},
		{"2.2", []string{"2.2"}, []string{"2.3"}},
		{">1.0 <2.0", []string{"1.5"}, []string{"1.0", "2.0"}},
	}
	for _, c := range cases {
		rs, err := ParseRange(c.expr)
		if err != nil {
			t.Errorf("ParseRange(%q): %v", c.expr, err)
			continue
		}
		for _, s := range c.in {
			if !rs.Contains(MustParse(s)) {
				t.Errorf("%q should contain %s", c.expr, s)
			}
		}
		for _, s := range c.out {
			if rs.Contains(MustParse(s)) {
				t.Errorf("%q should not contain %s", c.expr, s)
			}
		}
	}
}

func TestParseRangeErrors(t *testing.T) {
	for _, expr := range []string{"", "<", ">= ", "< abc", "1.2 ~", "~ 2.0"} {
		if _, err := ParseRange(expr); err == nil {
			t.Errorf("ParseRange(%q): expected error", expr)
		}
	}
}

func TestIntervalString(t *testing.T) {
	cases := map[string]string{
		"< 1.9.0":          "< 1.9.0",
		">= 1.2.0 < 3.5.0": ">= 1.2.0 < 3.5.0",
		"*":                "*",
		"<= 1.7.3":         "<= 1.7.3",
	}
	for expr, want := range cases {
		rs := MustParseRange(expr)
		if got := rs.Intervals[0].String(); got != want {
			t.Errorf("Interval(%q).String() = %q, want %q", expr, got, want)
		}
	}
}

func TestRangeSetString(t *testing.T) {
	rs := MustParseRange("< 3.4.1, >= 4.0.0 < 4.3.1")
	want := "< 3.4.1, >= 4.0.0 < 4.3.1"
	if got := rs.String(); got != want {
		t.Errorf("RangeSet.String() = %q, want %q", got, want)
	}
	var empty RangeSet
	if empty.String() != "(none)" || !empty.IsZero() {
		t.Error("empty RangeSet rendering/IsZero wrong")
	}
}

func TestIntervalEmpty(t *testing.T) {
	cases := []struct {
		iv    Interval
		empty bool
	}{
		{Interval{Lo: MustParse("2.0"), LoInc: true, Hi: MustParse("1.0")}, true},
		{Interval{Lo: MustParse("1.0"), LoInc: true, Hi: MustParse("1.0"), HiInc: true}, false},
		{Interval{Lo: MustParse("1.0"), Hi: MustParse("1.0"), HiInc: true}, true}, // (1.0, 1.0]
		{All, false},
		{Interval{Hi: MustParse("0.1")}, false},
	}
	for i, c := range cases {
		if got := c.iv.Empty(); got != c.empty {
			t.Errorf("case %d: Empty() = %v, want %v", i, got, c.empty)
		}
	}
}

// Property: membership in an interval is consistent with the ordering of its
// bounds — if v is in [lo, hi) then lo <= v < hi.
func TestQuickIntervalConsistency(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		lo, hi, v := randomVersion(r), randomVersion(r), randomVersion(r)
		if hi.Less(lo) {
			lo, hi = hi, lo
		}
		iv := Interval{Lo: lo, LoInc: true, Hi: hi}
		if iv.Contains(v) {
			return lo.Compare(v) <= 0 && v.Compare(hi) < 0
		}
		return lo.Compare(v) > 0 || v.Compare(hi) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: All contains every version; an empty-bounds RangeSet none.
func TestQuickAllContains(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		v := randomVersion(r)
		var none RangeSet
		return All.Contains(v) && !none.Contains(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Table 2 ranges, verbatim from the paper, must parse.
func TestPaperRangesParse(t *testing.T) {
	exprs := []string{
		"< 1.9.0", "1.0.3 ~ 3.5.0", "1.2.0 ~ 3.5.0", "< 3.4.0",
		"1.12.0 ~ 3.0.0", "1.4.2 ~ 1.6.2", "< 1.9.1", "< 1.6.3",
		"< 3.4.1, >= 4.0.0 < 4.3.1", "< 4.1.2", "< 1.2.1",
		"< 1.10.0", "< 1.12.0", "< 1.13.0", "1.3.2 ~ 1.12.1",
		"< 2.19.3", "< 2.11.2", "<= 1.7.3", "< 1.6.0.1", "*",
		"< 3.6.0", "1.4.0 ~ 3.5.0", "1.12.0 ~ 3.5.0", "1.5.0 ~ 2.2.4",
		"1.0.0 ~ 3.0.0", "1.10.0 ~ 1.13.0", "2.3.0 ~ 4.1.2",
		"3.2.0 ~ 3.4.0", "2.1.0 ~ 3.4.0", "2.8.1 ~ 2.15.2",
	}
	for _, e := range exprs {
		if _, err := ParseRange(e); err != nil {
			t.Errorf("paper range %q failed to parse: %v", e, err)
		}
	}
}
