package semver

import (
	"fmt"
	"strings"
)

// Interval is a half-open-ish version interval with explicit inclusivity on
// both bounds. A zero bound (IsZero) means unbounded on that side, so the
// zero Interval matches every version ("All versions" in CVE parlance).
type Interval struct {
	Lo, Hi       Version // zero value = unbounded
	LoInc, HiInc bool    // whether the bound itself is included
}

// All is the interval containing every version.
var All = Interval{}

// Contains reports whether v lies in the interval.
func (iv Interval) Contains(v Version) bool {
	if !iv.Lo.IsZero() {
		c := v.Compare(iv.Lo)
		if c < 0 || (c == 0 && !iv.LoInc) {
			return false
		}
	}
	if !iv.Hi.IsZero() {
		c := v.Compare(iv.Hi)
		if c > 0 || (c == 0 && !iv.HiInc) {
			return false
		}
	}
	return true
}

// Empty reports whether the interval can contain no version (bounds crossed).
func (iv Interval) Empty() bool {
	if iv.Lo.IsZero() || iv.Hi.IsZero() {
		return false
	}
	c := iv.Lo.Compare(iv.Hi)
	if c > 0 {
		return true
	}
	if c == 0 {
		return !(iv.LoInc && iv.HiInc)
	}
	return false
}

// String renders the interval in CVE-report style: "< 1.9.0",
// ">= 1.2.0 < 3.5.0", "<= 1.7.3", "*" for all versions.
func (iv Interval) String() string {
	var parts []string
	if !iv.Lo.IsZero() {
		op := ">"
		if iv.LoInc {
			op = ">="
		}
		parts = append(parts, op+" "+iv.Lo.String())
	}
	if !iv.Hi.IsZero() {
		op := "<"
		if iv.HiInc {
			op = "<="
		}
		parts = append(parts, op+" "+iv.Hi.String())
	}
	if len(parts) == 0 {
		return "*"
	}
	return strings.Join(parts, " ")
}

// RangeSet is a union of intervals: a version matches if any interval
// contains it. CVE reports for multi-branch projects (e.g. Bootstrap 3.x and
// 4.x) state one interval per maintained branch.
type RangeSet struct {
	Intervals []Interval
}

// Contains reports whether any interval of the set contains v.
func (rs RangeSet) Contains(v Version) bool {
	for _, iv := range rs.Intervals {
		if iv.Contains(v) {
			return true
		}
	}
	return false
}

// IsZero reports whether the set has no intervals (matches nothing).
func (rs RangeSet) IsZero() bool { return len(rs.Intervals) == 0 }

// String renders the set with ", " between branch intervals.
func (rs RangeSet) String() string {
	if len(rs.Intervals) == 0 {
		return "(none)"
	}
	parts := make([]string, len(rs.Intervals))
	for i, iv := range rs.Intervals {
		parts[i] = iv.String()
	}
	return strings.Join(parts, ", ")
}

// ParseRange parses a range expression into a RangeSet.
//
// Grammar (whitespace-separated comparators AND within a group, commas OR
// between groups, mirroring how CVE reports state multi-branch ranges):
//
//	set        = group ("," group)* | "*" | "all"
//	group      = comparator+
//	comparator = ("<" | "<=" | ">" | ">=" | "=" | "==") version
//	           | version                      (exact match)
//	           | version "~" version          (>= lo, < hi; paper's "lo ∼ hi")
//
// Examples:
//
//	"< 1.9.0"
//	">= 1.2.0 < 3.5.0"
//	"1.0.3 ~ 3.5.0"
//	"< 3.4.1, >= 4.0.0 < 4.3.1"
//	"*"
func ParseRange(s string) (RangeSet, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return RangeSet{}, fmt.Errorf("semver: empty range")
	}
	if s == "*" || strings.EqualFold(s, "all") {
		return RangeSet{Intervals: []Interval{All}}, nil
	}
	var set RangeSet
	for _, group := range strings.Split(s, ",") {
		iv, err := parseGroup(group)
		if err != nil {
			return RangeSet{}, err
		}
		set.Intervals = append(set.Intervals, iv)
	}
	return set, nil
}

// MustParseRange is ParseRange that panics on error.
func MustParseRange(s string) RangeSet {
	rs, err := ParseRange(s)
	if err != nil {
		panic(err)
	}
	return rs
}

func parseGroup(group string) (Interval, error) {
	fields := strings.Fields(group)
	if len(fields) == 0 {
		return Interval{}, fmt.Errorf("semver: empty range group in %q", group)
	}
	// "lo ~ hi" form, possibly tokenized as "lo", "~", "hi" or "lo~hi".
	joined := strings.Join(fields, " ")
	if strings.Contains(joined, "~") {
		lohi := strings.SplitN(joined, "~", 2)
		lo, err := Parse(strings.TrimSpace(lohi[0]))
		if err != nil {
			return Interval{}, err
		}
		hi, err := Parse(strings.TrimSpace(lohi[1]))
		if err != nil {
			return Interval{}, err
		}
		return Interval{Lo: lo, LoInc: true, Hi: hi}, nil
	}
	var iv Interval
	i := 0
	for i < len(fields) {
		tok := fields[i]
		op := ""
		rest := tok
		for _, o := range []string{"<=", ">=", "==", "<", ">", "="} {
			if strings.HasPrefix(tok, o) {
				op = o
				rest = strings.TrimSpace(tok[len(o):])
				break
			}
		}
		if op != "" && rest == "" {
			// Operator and version in separate tokens.
			i++
			if i >= len(fields) {
				return Interval{}, fmt.Errorf("semver: dangling operator %q in %q", op, group)
			}
			rest = fields[i]
		}
		v, err := Parse(rest)
		if err != nil {
			return Interval{}, err
		}
		switch op {
		case "<":
			iv.Hi, iv.HiInc = v, false
		case "<=":
			iv.Hi, iv.HiInc = v, true
		case ">":
			iv.Lo, iv.LoInc = v, false
		case ">=":
			iv.Lo, iv.LoInc = v, true
		case "=", "==", "":
			iv.Lo, iv.LoInc = v, true
			iv.Hi, iv.HiInc = v, true
		}
		i++
	}
	return iv, nil
}
