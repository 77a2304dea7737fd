package poclab

import (
	"fmt"
	"runtime"
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
	poc, err := PoCFor(advisoryID)
	if err != nil {
		return Finding{}, err
	}
	var adv vulndb.Advisory
	found := false
	for _, a := range vulndb.Advisories() {
		if a.ID == advisoryID {
			adv, found = a, true
			break
		}
	}
	if !found {
		return Finding{}, fmt.Errorf("poclab: advisory %q not in vulndb", advisoryID)
	}
	cat, ok := vulndb.CatalogFor(adv.Lib)
	if !ok {
		return Finding{}, fmt.Errorf("poclab: no catalog for %q", adv.Lib)
	}

	// NewEnv fails only on an unknown slug: check it once, before the
	// fan-out, so runEnvs cannot fail.
	if _, err := NewEnv(adv.Lib, semver.Version{}); err != nil {
		return Finding{}, err
	}

	f := Finding{Advisory: adv, PoC: poc}
	versions := cat.Versions()
	semver.Sort(versions)
	triggered := runEnvs(adv.Lib, versions, poc)
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
	return f, nil
}

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
