// Package semver implements version parsing, ordering, and range matching
// for client-side library versions as they appear in the wild and in CVE
// reports.
//
// JavaScript library projects nominally follow Semantic Versioning
// (MAJOR.MINOR.PATCH), but versions observed in URLs and CVE reports are
// messier: two-component versions ("2.2"), four-component versions
// ("1.6.0.1", Prototype), bare majors ("3", Polyfill), and pre-release
// suffixes ("1.0b2", "2.0.0-rc.1"). This package accepts all of them.
//
// Ordering follows numeric component-wise comparison with missing trailing
// components treated as zero ("1.9" == "1.9.0"), and any pre-release
// ordering strictly before its release ("3.0.0-rc1" < "3.0.0").
package semver

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
)

// Version is a parsed library version. The zero Version is "0".
type Version struct {
	// Parts holds the numeric dot-separated components, most significant
	// first. It never has trailing zeros beyond the parsed precision; use
	// Compare for equality across precisions.
	Parts []int
	// Pre is the pre-release tag, if any ("rc1" in "3.0.0-rc1", "b2" in
	// "1.0b2"). Empty for release versions. A version with a non-empty Pre
	// orders strictly before the same numeric version with an empty Pre.
	Pre string
	raw string
}

// Parse parses a version string. Accepted grammar:
//
//	version    = number ("." number)* [pre]
//	pre        = "-" tag | "+" tag | letter-initiated tag glued to a number
//
// Examples: "1.12.4", "2.2", "3", "1.6.0.1", "3.0.0-rc1", "1.0b2".
// A leading "v" or "V" is stripped ("v3.6.0").
func Parse(s string) (Version, error) {
	raw := s
	s = strings.TrimSpace(s)
	if len(s) > 0 && (s[0] == 'v' || s[0] == 'V') {
		s = s[1:]
	}
	if s == "" {
		return Version{}, fmt.Errorf("semver: empty version")
	}
	// Interior whitespace never appears in real versions, and a tag ending
	// in whitespace would not survive the Canonical → Parse round trip
	// (TrimSpace would eat it), so reject it outright.
	if strings.IndexFunc(s, unicode.IsSpace) >= 0 {
		return Version{}, fmt.Errorf("semver: %q: contains whitespace", raw)
	}
	// Split off an explicit pre-release marker first.
	pre := ""
	if i := strings.IndexAny(s, "-+"); i >= 0 {
		pre = s[i+1:]
		s = s[:i]
		if s == "" {
			return Version{}, fmt.Errorf("semver: %q: no numeric part", raw)
		}
	}
	var parts []int
	for _, comp := range strings.Split(s, ".") {
		if comp == "" {
			return Version{}, fmt.Errorf("semver: %q: empty component", raw)
		}
		// A component like "0b2" carries a glued pre-release tag.
		numEnd := 0
		for numEnd < len(comp) && comp[numEnd] >= '0' && comp[numEnd] <= '9' {
			numEnd++
		}
		if numEnd == 0 {
			return Version{}, fmt.Errorf("semver: %q: component %q is not numeric", raw, comp)
		}
		n, err := strconv.Atoi(comp[:numEnd])
		if err != nil {
			return Version{}, fmt.Errorf("semver: %q: %v", raw, err)
		}
		parts = append(parts, n)
		if numEnd < len(comp) {
			if pre != "" {
				return Version{}, fmt.Errorf("semver: %q: multiple pre-release tags", raw)
			}
			pre = comp[numEnd:]
		}
	}
	return Version{Parts: parts, Pre: pre, raw: raw}, nil
}

// MustParse is Parse that panics on error. For statically-known versions.
func MustParse(s string) Version {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

// String returns the original string the version was parsed from, or a
// canonical rendering for constructed values.
func (v Version) String() string {
	if v.raw != "" {
		return v.raw
	}
	if len(v.Parts) == 0 {
		return "0"
	}
	b := new(strings.Builder)
	for i, p := range v.Parts {
		if i > 0 {
			b.WriteByte('.')
		}
		fmt.Fprintf(b, "%d", p)
	}
	if v.Pre != "" {
		b.WriteByte('-')
		b.WriteString(v.Pre)
	}
	return b.String()
}

// Canonical returns the version rendered with exactly three components
// (extra components kept, missing padded with zeros) and any pre-release
// tag, independent of the source formatting. Useful as a map key.
func (v Version) Canonical() string {
	parts := v.Parts
	for len(parts) < 3 {
		parts = append(parts, 0)
	}
	b := new(strings.Builder)
	for i, p := range parts {
		if i > 0 {
			b.WriteByte('.')
		}
		fmt.Fprintf(b, "%d", p)
	}
	if v.Pre != "" {
		b.WriteByte('-')
		b.WriteString(v.Pre)
	}
	return b.String()
}

// Major returns the first numeric component (0 if absent).
func (v Version) Major() int { return v.part(0) }

func (v Version) part(i int) int {
	if i < len(v.Parts) {
		return v.Parts[i]
	}
	return 0
}

// IsZero reports whether v is the zero value (no parsed content).
func (v Version) IsZero() bool { return len(v.Parts) == 0 && v.Pre == "" && v.raw == "" }

// Compare returns -1, 0, or +1 if v orders before, equal to, or after w.
// Missing trailing components compare as zero; a pre-release orders before
// the corresponding release; two pre-releases compare lexically by tag.
func (v Version) Compare(w Version) int {
	n := len(v.Parts)
	if len(w.Parts) > n {
		n = len(w.Parts)
	}
	for i := 0; i < n; i++ {
		a, b := v.part(i), w.part(i)
		switch {
		case a < b:
			return -1
		case a > b:
			return 1
		}
	}
	switch {
	case v.Pre == w.Pre:
		return 0
	case v.Pre == "":
		return 1 // release > pre-release
	case w.Pre == "":
		return -1
	case v.Pre < w.Pre:
		return -1
	default:
		return 1
	}
}

// Less reports whether v orders strictly before w.
func (v Version) Less(w Version) bool { return v.Compare(w) < 0 }

// Equal reports whether v and w denote the same version ("1.9" equals
// "1.9.0").
func (v Version) Equal(w Version) bool { return v.Compare(w) == 0 }

// Sort sorts versions ascending in place.
func Sort(vs []Version) {
	// Insertion sort keeps this dependency-free and is fine for catalog
	// sizes (≤ ~150 versions per library).
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j].Less(vs[j-1]); j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// Max returns the larger of a and b.
func Max(a, b Version) Version {
	if a.Compare(b) >= 0 {
		return a
	}
	return b
}

// Min returns the smaller of a and b.
func Min(a, b Version) Version {
	if a.Compare(b) <= 0 {
		return a
	}
	return b
}
