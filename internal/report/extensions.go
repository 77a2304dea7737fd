package report

import (
	"fmt"
	"io"
	"sort"
)

// extensions renders the measurements that go beyond the paper's published
// evaluation — the items its Section 9 lists as future work: update
// regressions (patched sites rolling back and re-opening vulnerability
// windows) and exploitability-aware prevalence (excluding advisories that
// require site-specific preconditions).
func extensions(w io.Writer, s Study, sum Summary) {
	vuln, reg := s.Vuln, s.Regress
	fmt.Fprintf(w, "\n== Extensions (the paper's Section 9 future work) ==\n")

	fmt.Fprintf(w, "exploitability-aware prevalence: %s of sites carry a vulnerability\n",
		pct(vuln.MeanReadilyExploitableShare()))
	fmt.Fprintf(w, "  without Section 9 preconditions (vs %s counting every advisory)\n",
		pct(sum.VulnerableShareTVV))

	// The per-year CVE/TVV gap (the paper: 0.1 points in 2018 growing to
	// 2.9 in 2022).
	var yearRows [][]string
	for _, ys := range vuln.YearlyShares() {
		yearRows = append(yearRows, []string{
			num(ys.Year), pct(ys.CVE), pct(ys.TVV), pct(ys.TVV - ys.CVE),
		})
	}
	Table(w, "Vulnerable-site share per year: CVE vs corrected (TVV) ranges",
		[]string{"Year", "CVE", "TVV", "gap"}, yearRows)

	// High-profile sites vulnerable only under corrected ranges (the
	// paper's microsoft.com / docusign.com examples).
	if sites := vuln.TopUndisclosedSites(10); len(sites) > 0 {
		var rows [][]string
		for _, s := range sites {
			rows = append(rows, []string{s.Domain, num(s.Rank)})
		}
		Table(w, "Top-ranked sites vulnerable ONLY under corrected (TVV) ranges",
			[]string{"Website", "Rank"}, rows)
	}

	fmt.Fprintf(w, "update regressions: %d domains rolled a library update back during the study\n",
		reg.RegressedDomains())
	fmt.Fprintf(w, "re-opened vulnerability windows: %d (site, advisory) pairs left a\n",
		reg.TotalReopened())
	fmt.Fprintf(w, "  vulnerable range and later regressed back into it\n")

	if downs := reg.DowngradesByLibrary(); len(downs) > 0 {
		var rows [][]string
		for _, lc := range downs {
			rows = append(rows, []string{lc.Slug, num(lc.Count)})
		}
		Table(w, "Extension: observed version downgrades per library",
			[]string{"Library", "Downgrade events"}, rows)
	}
	if reopened := reg.ReopenedWindows(); len(reopened) > 0 {
		ids := make([]string, 0, len(reopened))
		for id := range reopened {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool {
			if reopened[ids[i]] != reopened[ids[j]] {
				return reopened[ids[i]] > reopened[ids[j]]
			}
			return ids[i] < ids[j]
		})
		var rows [][]string
		for _, id := range ids {
			rows = append(rows, []string{id, num(reopened[id])})
		}
		Table(w, "Extension: re-opened vulnerability windows per advisory",
			[]string{"Advisory", "Re-opened"}, rows)
	}
}
