package poclab

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"clientres/internal/semver"
	"clientres/internal/vulndb"
)

// Finding is the result of validating one advisory against every catalogued
// version of its library — one row of the paper's Version Validation
// Experiment (Section 6.4, Table 2, Figures 4 and 13).
type Finding struct {
	Advisory vulndb.Advisory
	PoC      PoC
	// Vulnerable lists the catalog versions on which the PoC triggered.
	Vulnerable []semver.Version
	// TVV is the computed true-vulnerable-version set, compressed to
	// contiguous catalog intervals.
	TVV semver.RangeSet
	// Accuracy classifies the CVE-stated range against the computed TVV.
	Accuracy vulndb.Accuracy
	// MatchesPaper reports whether the computed TVV agrees with the
	// paper's published TVV on every catalog version.
	MatchesPaper bool
}

// Understated returns catalog versions that are truly vulnerable but
// missing from the CVE's stated range (the red stripes of Figure 4).
func (f Finding) Understated() []semver.Version {
	var out []semver.Version
	for _, v := range f.Vulnerable {
		if !f.Advisory.CVERange.Contains(v) {
			out = append(out, v)
		}
	}
	return out
}

// Overstated returns catalog versions inside the CVE's stated range that
// the PoC could not trigger on (the blue stripes of Figure 4).
func (f Finding) Overstated() []semver.Version {
	cat, _ := vulndb.CatalogFor(f.Advisory.Lib)
	vulnerable := map[string]bool{}
	for _, v := range f.Vulnerable {
		vulnerable[v.Canonical()] = true
	}
	var out []semver.Version
	for _, v := range cat.Versions() {
		if f.Advisory.CVERange.Contains(v) && !vulnerable[v.Canonical()] {
			out = append(out, v)
		}
	}
	return out
}

// Run validates one advisory: it sets up an environment per catalog version
// (the paper's "85 different environments" for jQuery), runs the PoC, and
// derives the TVV set and accuracy classification.
func Run(advisoryID string) (Finding, error) {
	adv, poc, versions, err := experiment(advisoryID)
	if err != nil {
		return Finding{}, err
	}
	// NewEnv fails only on an unknown slug: check it once, before the
	// fan-out, so runEnvs cannot fail.
	if _, err := NewEnv(adv.Lib, semver.Version{}); err != nil {
		return Finding{}, err
	}
	return finding(adv, poc, versions, runEnvs(adv.Lib, versions, poc)), nil
}

//go:generate go run ./gentable

// RunAll validates every Table 2 advisory in row order.
func RunAll() ([]Finding, error) {
	var out []Finding
	for _, adv := range vulndb.Advisories() {
		f, err := Run(adv.ID)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

// Findings returns what RunAll returns, every Table 2 advisory in row order,
// without running a PoC: which catalog versions each PoC triggered on is
// read from the committed table in findings_table.go, which
// `go generate ./internal/poclab` writes from RunAll, and the rest of each
// Finding is derived as Run derives it. A table that misses an advisory or
// names a version its catalog lacks is an error: regenerate it.
func Findings() ([]Finding, error) {
	var out []Finding
	for _, a := range vulndb.Advisories() {
		adv, poc, versions, err := experiment(a.ID)
		if err != nil {
			return nil, err
		}
		row, ok := labTable[a.ID]
		if !ok {
			return nil, fmt.Errorf("poclab: the findings table has no row for %s: run go generate ./internal/poclab", a.ID)
		}
		in := make(map[string]bool, len(row))
		for _, s := range row {
			in[s] = true
		}
		triggered, n := make([]bool, len(versions)), 0
		for i, v := range versions {
			if in[v.String()] {
				triggered[i] = true
				n++
			}
		}
		if n != len(row) {
			return nil, fmt.Errorf("poclab: the findings table's row for %s names versions its catalog lacks: run go generate ./internal/poclab", a.ID)
		}
		out = append(out, finding(adv, poc, versions, triggered))
	}
	return out, nil
}

// experiment returns an advisory's set-up: the advisory, its PoC and its
// library's catalog versions, ascending.
func experiment(advisoryID string) (vulndb.Advisory, PoC, []semver.Version, error) {
	poc, err := PoCFor(advisoryID)
	if err != nil {
		return vulndb.Advisory{}, PoC{}, nil, err
	}
	i := slices.IndexFunc(vulndb.Advisories(), func(a vulndb.Advisory) bool { return a.ID == advisoryID })
	if i < 0 {
		return vulndb.Advisory{}, PoC{}, nil, fmt.Errorf("poclab: advisory %q not in vulndb", advisoryID)
	}
	adv := vulndb.Advisories()[i]
	cat, ok := vulndb.CatalogFor(adv.Lib)
	if !ok {
		return vulndb.Advisory{}, PoC{}, nil, fmt.Errorf("poclab: no catalog for %q", adv.Lib)
	}
	versions := cat.Versions()
	semver.Sort(versions)
	return adv, poc, versions, nil
}

// finding derives an advisory's Finding from where its PoC triggered, one
// flag per catalog version: the vulnerable versions, the TVV set, the
// accuracy classification and the agreement with the paper.
func finding(adv vulndb.Advisory, poc PoC, versions []semver.Version, triggered []bool) Finding {
	f := Finding{Advisory: adv, PoC: poc}
	for i, v := range versions {
		if triggered[i] {
			f.Vulnerable = append(f.Vulnerable, v)
		}
	}
	f.TVV = compressIntervals(versions, triggered)

	// Accuracy: compare CVE range vs computed TVV over the catalog.
	under, over := false, false
	for i, v := range versions {
		inCVE := adv.CVERange.Contains(v)
		switch {
		case triggered[i] && !inCVE:
			under = true
		case !triggered[i] && inCVE:
			over = true
		}
	}
	switch {
	case under && over:
		f.Accuracy = vulndb.Mixed
	case under:
		f.Accuracy = vulndb.Understated
	case over:
		f.Accuracy = vulndb.Overstated
	default:
		f.Accuracy = vulndb.Accurate
	}

	// Agreement with the paper's published TVV.
	f.MatchesPaper = true
	paperTVV := adv.EffectiveTrueRange()
	for i, v := range versions {
		if triggered[i] != paperTVV.Contains(v) {
			f.MatchesPaper = false
			break
		}
	}
	return f
}

// runEnvs runs poc in a fresh environment per version on a fixed pool of
// GOMAXPROCS goroutines and reports, in version order, where it triggered.
// Environments share no state and each goroutine writes only its own
// versions' slots, so the result does not depend on scheduling.
func runEnvs(slug string, versions []semver.Version, poc PoC) []bool {
	triggered := make([]bool, len(versions))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				env, _ := NewEnv(slug, versions[i])
				triggered[i] = poc.Run(env)
			}
		}()
	}
	for i := range versions {
		next <- i
	}
	close(next)
	wg.Wait()
	return triggered
}

// compressIntervals turns per-version trigger flags into contiguous
// inclusive intervals over the sorted catalog versions.
func compressIntervals(versions []semver.Version, triggered []bool) semver.RangeSet {
	var set semver.RangeSet
	i := 0
	for i < len(versions) {
		if !triggered[i] {
			i++
			continue
		}
		j := i
		for j+1 < len(versions) && triggered[j+1] {
			j++
		}
		set.Intervals = append(set.Intervals, semver.Interval{
			Lo: versions[i], LoInc: true,
			Hi: versions[j], HiInc: true,
		})
		i = j + 1
	}
	return set
}
