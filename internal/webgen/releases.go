package webgen

// Release indexes: the question every version truth asks — "which is the
// newest release out by date D?" — is a question about a catalog alone, so
// it is answered from tables built once per process instead of by scanning
// the catalog for every (site, library, week).
//
// A releaseSeq lists a catalog's releases ascending by date and holds, for
// each position, the best release among those up to it: the highest
// version, and on equal versions ("1.9" and "1.9.0") the first in catalog
// order — the one a scan that replaces its pick only on a strictly higher
// version keeps. The releases out by a cutoff are a prefix of the
// sequence, so the newest of them is one binary search away.

import (
	"sort"
	"time"

	"clientres/internal/semver"
	"clientres/internal/vulndb"
)

const secondsPerDay = 24 * 60 * 60

// releaseSeq is one release sequence of a catalog sorted by date.
type releaseSeq struct {
	// dates holds the release dates ascending, as Unix seconds. Every date
	// and cutoff here is a UTC instant on a whole second, so comparing
	// seconds is comparing the times, and shifting by days is AddDate.
	dates []int64
	// best[i] is the catalog index of the best release among the first
	// i+1 of the sequence.
	best []int32
}

// releaseIndex answers release queries about one catalog: all of its
// releases, each major line's (for MajorPinned uses), and lookups by
// version.
type releaseIndex struct {
	// versions holds the releases' versions in catalog order.
	versions []semver.Version
	all      releaseSeq
	major    map[int]*releaseSeq
	// byVersion lists catalog indices ascending by version, equal versions
	// in catalog order.
	byVersion []int32
	// latest[p] holds the catalog indices of the last lateChoices releases
	// in catalog order among the first p+1 by date, the last first (-1 past
	// the end): the releases a late adopter picks among.
	latest [][lateChoices]int32
	// preStudy lists the catalog indices of the releases out before the
	// study start, in catalog order: the spread an initial version draws
	// from.
	preStudy []int32
}

// lateChoices is how many of the releases out at its adoption a late
// adopter picks among.
const lateChoices = 4

// newReleaseIndex indexes a catalog given its versions and release dates in
// catalog order.
func newReleaseIndex(versions []semver.Version, dates []time.Time) *releaseIndex {
	x := &releaseIndex{versions: versions, major: map[int]*releaseSeq{}}
	order := make([]int32, len(versions))
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool { return dates[order[a]].Before(dates[order[b]]) })
	x.all = x.seqOf(order, dates)
	x.latest = make([][lateChoices]int32, len(order))
	last := [lateChoices]int32{-1, -1, -1, -1}
	for p, i := range order {
		for k := range last {
			if last[k] < i {
				copy(last[k+1:], last[k:lateChoices-1])
				last[k] = i
				break
			}
		}
		x.latest[p] = last
	}
	for i, d := range dates {
		if d.Before(studyStart) {
			x.preStudy = append(x.preStudy, int32(i))
		}
	}
	lines := map[int][]int32{}
	for _, i := range order {
		m := versions[i].Major()
		lines[m] = append(lines[m], i)
	}
	for m, line := range lines {
		seq := x.seqOf(line, dates)
		x.major[m] = &seq
	}
	x.byVersion = make([]int32, len(versions))
	for i := range x.byVersion {
		x.byVersion[i] = int32(i)
	}
	sort.SliceStable(x.byVersion, func(a, b int) bool {
		return versions[x.byVersion[a]].Less(versions[x.byVersion[b]])
	})
	return x
}

// seqOf builds the sequence of the releases order lists, ascending by date.
func (x *releaseIndex) seqOf(order []int32, dates []time.Time) releaseSeq {
	seq := releaseSeq{dates: make([]int64, len(order)), best: make([]int32, len(order))}
	for p, i := range order {
		seq.dates[p] = dates[i].Unix()
		b := i
		if p > 0 {
			prev := seq.best[p-1]
			if c := x.versions[i].Compare(x.versions[prev]); c < 0 || c == 0 && prev < i {
				b = prev
			}
		}
		seq.best[p] = b
	}
	return seq
}

// seq returns the sequence a use draws from: its initial version's major
// line when pinned, every release otherwise; nil when that line has none.
func (x *releaseIndex) seq(initial semver.Version, pinned bool) *releaseSeq {
	if pinned {
		return x.major[initial.Major()]
	}
	return &x.all
}

// count returns how many releases of the sequence are out by cutoff.
func (q *releaseSeq) count(cutoff int64) int {
	lo, hi := 0, len(q.dates)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.dates[mid] <= cutoff {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// at returns the catalog index of the best release out by cutoff, or -1
// when none is.
func (q *releaseSeq) at(cutoff int64) int {
	if n := q.count(cutoff); n > 0 {
		return int(q.best[n-1])
	}
	return -1
}

// newest returns the best release of q out by cutoff when it is above
// initial, and initial otherwise (also when it only equals initial).
func (x *releaseIndex) newest(q *releaseSeq, initial semver.Version, cutoff int64) semver.Version {
	if q == nil {
		return initial
	}
	if i := q.at(cutoff); i >= 0 && initial.Less(x.versions[i]) {
		return x.versions[i]
	}
	return initial
}

// firstAbove returns the first position of q at or after from whose best
// release is above floor, or len(q.best) when none is. The best releases
// never descend along the sequence, so this is a binary search.
func (x *releaseIndex) firstAbove(q *releaseSeq, floor semver.Version, from int) int {
	lo, hi := from, len(q.best)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if floor.Less(x.versions[q.best[mid]]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// find returns the catalog index of the first release (in catalog order)
// whose version equals v, or -1 when none does.
func (x *releaseIndex) find(v semver.Version) int {
	i := sort.Search(len(x.byVersion), func(i int) bool {
		return !x.versions[x.byVersion[i]].Less(v)
	})
	if i < len(x.byVersion) && x.versions[x.byVersion[i]].Equal(v) {
		return int(x.byVersion[i])
	}
	return -1
}

// catalogIndexes holds the index of every catalog vulndb knows, by slug.
var catalogIndexes = func() map[string]*releaseIndex {
	out := map[string]*releaseIndex{}
	for _, slug := range vulndb.CatalogSlugs() {
		cat, _ := vulndb.CatalogFor(slug)
		versions := make([]semver.Version, len(cat.Releases))
		dates := make([]time.Time, len(cat.Releases))
		for i, rel := range cat.Releases {
			versions[i], dates[i] = rel.Version, rel.Date
		}
		out[slug] = newReleaseIndex(versions, dates)
	}
	return out
}()

// wpReleases is the WordPress release line and wpIndex its index.
var (
	wpReleases = vulndb.WordPressReleases()
	wpIndex    = func() *releaseIndex {
		versions := make([]semver.Version, len(wpReleases))
		dates := make([]time.Time, len(wpReleases))
		for i, rel := range wpReleases {
			versions[i], dates[i] = rel.Version, rel.Date
		}
		return newReleaseIndex(versions, dates)
	}()
)

// daysBefore returns the instant n days before t, as Unix seconds.
func daysBefore(t time.Time, n int) int64 { return t.Unix() - int64(n)*secondsPerDay }
