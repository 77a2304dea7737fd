package report

import (
	"fmt"
	"io"
	"os"
	"strings"

	"clientres/internal/analysis"
	"clientres/internal/poclab"
	"clientres/internal/semver"
	"clientres/internal/vulndb"
)

// figures is the report's list of figures, in the order Write prints them.
// Each builds its figure from the collectors it plots and, for its notes,
// the study's headline numbers.
var figures = []func(s Study, sum Summary) figure{
	figure2a, figure2b, figure3, figure4, figure5, figure6, figure7, figure8,
	figure9, figure10, figure11, figure12, figure13, figure14, figure15,
}

// figure is one figure of the paper as the report prints it: its series
// tables, then notes that only the text report carries. Figures 4 and 13,
// the PoC lab's version intervals, are notes alone.
type figure struct {
	tables []series
	notes  func(w io.Writer)
}

func (f figure) write(w io.Writer) {
	for _, t := range f.tables {
		t.text(w)
	}
	if f.notes != nil {
		f.notes(w)
	}
}

// series is one table of a figure: a key column (a week's date, or Figure
// 12's vulnerability count) and value columns, vals[col][row].
type series struct {
	file, title string // file names its CSV file, without ".csv"
	key         string // the key column's header
	keyOf       func(row int) string
	rows, step  int // the text report prints every step-th of rows
	cols        []string
	vals        [][]float64
	kind        kind
}

// kind is what a series' values are, which decides how they render.
type kind int

const (
	count kind = iota // sites: integers
	share             // fractions: percentages in text, %.4f in CSV
	cdf               // Figure 12's CDF: %.2f in text, %.6f in CSV
)

func (k kind) cell(v float64, csv bool) string {
	switch {
	case k == count:
		return num(int(v))
	case k == share && csv:
		return fmt.Sprintf("%.4f", v)
	case k == share:
		return pct(v)
	case csv:
		return fmt.Sprintf("%.6f", v)
	}
	return f2(v)
}

// sampleStep is the text report's sampling of a weekly series (13 weeks ≈
// quarterly); its CSV file has every week.
const sampleStep = 13

// weekly is a series with a row per week of s, keyed by the week's date.
func weekly(s Study, file, title string, k kind, cols []string, vals ...[]float64) series {
	return series{file: file, title: title, key: "date", keyOf: weekDate,
		rows: s.Weeks, step: sampleStep, cols: cols, vals: vals, kind: k}
}

func weekDate(wk int) string { return analysis.WeekDate(wk).Format("2006-01-02") }

// ints converts a count series to a series column.
func ints(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

func (t series) header() []string { return append([]string{t.key}, t.cols...) }

func (t series) row(r int, csv bool) []string {
	row := []string{t.keyOf(r)}
	for _, col := range t.vals {
		row = append(row, t.kind.cell(col[r], csv))
	}
	return row
}

func (t series) text(w io.Writer) {
	var rows [][]string
	for r := 0; r < t.rows; r += t.step {
		rows = append(rows, t.row(r, false))
	}
	Table(w, t.title, t.header(), rows)
}

func (t series) writeCSV(path string) error {
	rows := make([][]string, t.rows)
	for r := range rows {
		rows[r] = t.row(r, true)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := CSV(f, t.header(), rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// versions is a weekly count of sites per version of one library.
func versions(s Study, file, title string, of func(slug, v string) []int, slug string, vers ...string) series {
	vals := make([][]float64, len(vers))
	for i, v := range vers {
		vals[i] = ints(of(slug, v))
	}
	return weekly(s, file, title, count, vers, vals...)
}

// affected is a weekly count of the sites each advisory affects, under its
// CVE range and its true vulnerable versions.
func affected(s Study, file, title string, ids ...string) series {
	var cols []string
	var vals [][]float64
	for _, id := range ids {
		cve, tvv := s.Vuln.AdvisorySeries(id)
		cols = append(cols, id+" CVE", id+" TVV")
		vals = append(vals, ints(cve), ints(tvv))
	}
	return weekly(s, file, title, count, cols, vals...)
}

func figure2a(s Study, sum Summary) figure {
	return figure{[]series{weekly(s, "figure2a", "Figure 2a: collected websites per week", count,
		[]string{"attempted", "collected"}, ints(s.Coll.AttemptedSeries()), ints(s.Coll.CollectedSeries()))},
		func(w io.Writer) { fmt.Fprintf(w, "mean collected per week: %.0f\n", sum.MeanCollected) }}
}

func figure2b(s Study, _ Summary) figure {
	shares := s.Coll.ResourceShares()
	cols := make([]string, len(shares))
	vals := make([][]float64, len(shares))
	for i, r := range shares {
		cols[i], vals[i] = r.Resource, r.Weekly
	}
	return figure{[]series{weekly(s, "figure2b", "Figure 2b: top-8 client-side resource usage (% of collected)",
		share, cols, vals...)},
		func(w io.Writer) {
			for _, r := range shares {
				fmt.Fprintf(w, "mean %-14s %s\n", r.Resource+":", pct(r.Mean))
			}
		}}
}

func figure3(s Study, _ Summary) figure {
	usage := func(file, title string, slugs ...string) series {
		vals := make([][]float64, len(slugs))
		for i, slug := range slugs {
			vals[i] = s.Libs.UsageSeries(slug)
		}
		return weekly(s, file, title, share, slugs, vals...)
	}
	return figure{tables: []series{
		usage("figure3a", "Figure 3a: JavaScript library usage, top 5",
			"jquery", "jquery-migrate", "bootstrap", "jquery-ui", "modernizr"),
		usage("figure3b", "Figure 3b: JavaScript library usage, top 6-15",
			"js-cookie", "underscore", "isotope", "popper", "moment",
			"requirejs", "swfobject", "prototype", "jquery-cookie", "polyfill"),
	}}
}

func figure4(s Study, _ Summary) figure {
	return figure{notes: func(w io.Writer) { Figure4(w, s.Findings) }}
}

// figure5 plots the jQuery advisories, and figure14 the other libraries'
// advisories with incorrect CVE ranges.
func figure5(s Study, _ Summary) figure {
	return figure{tables: []series{affected(s, "figure5",
		"Figure 5: affected sites over time, jQuery advisories (CVE vs TVV)",
		"CVE-2020-7656", "CVE-2014-6071", "CVE-2020-11022")}}
}

func figure14(s Study, _ Summary) figure {
	return figure{tables: []series{affected(s, "figure14",
		"Figure 14: affected sites over time, CVE vs TVV ranges (non-jQuery advisories)",
		"SNYK-JQMIGRATE-2013", "CVE-2016-10735", "CVE-2018-20676",
		"CVE-2016-7103", "CVE-2016-4055", "CVE-2020-27511")}}
}

// figure6 is the usage of the top versions CVE-2020-7656 affects.
func figure6(s Study, _ Summary) figure {
	return figure{tables: []series{versions(s, "figure6",
		"Figure 6: usage of versions around CVE-2020-7656 (affected < 1.9.0, patched 1.9.0)",
		s.Libs.VersionSeries, "jquery", "1.8.3", "1.7.2", "1.7.1", "1.8.2", "1.9.0")}}
}

// figure7 is jQuery 1.12.4 against the patched 3.5+ line, overall (7a) and
// on WordPress sites (7b).
func figure7(s Study, _ Summary) figure {
	return figure{tables: []series{
		versions(s, "figure7a", "Figure 7a: jQuery 1.12.4 vs patched-version usage",
			s.Libs.VersionSeries, "jquery", "1.12.4", "3.5.0", "3.5.1", "3.6.0", "1.11.3"),
		versions(s, "figure7b", "Figure 7b: WordPress-associated jQuery versions",
			s.Libs.VersionSeriesWordPress, "jquery", "1.12.4", "3.5.1", "3.6.0"),
	}}
}

func figure8(s Study, sum Summary) figure {
	all, top10k, top1k := s.Flash.UsageSeries()
	return figure{[]series{weekly(s, "figure8",
		"Figure 8: Adobe Flash usage (all domains, top-1% band, top-0.1% band)", count,
		[]string{"all", "top-1%", "top-0.1%"}, ints(all), ints(top10k), ints(top1k))},
		func(w io.Writer) {
			fmt.Fprintf(w, "mean Flash sites after EOL (Jan 2021): %.0f\n", sum.FlashPostEOL)
			flashHoldouts(w, s.Flash)
		}}
}

// flashHoldouts prints the Section 8 case study: top-band post-EOL holdouts.
func flashHoldouts(w io.Writer, flash *analysis.Flash) {
	holdouts := flash.TopBandHoldouts()
	if len(holdouts) == 0 {
		return
	}
	var rows [][]string
	for i, h := range holdouts {
		if i >= 15 {
			break
		}
		vis := "invisible (off-page leftover)"
		if h.Visible {
			vis = "visible"
		}
		rows = append(rows, []string{h.Domain, num(h.Rank), h.Country, vis})
	}
	Table(w, "Section 8 case study: top-band websites still embedding Flash after EOL",
		[]string{"Website", "Rank", "Country", "Flash content"}, rows)
	v, inv := flash.HoldoutVisibility()
	fmt.Fprintf(w, "visible vs invisible holdouts: %d vs %d (paper: 6 vs 7 of 13)\n", v, inv)
}

func figure9(s Study, sum Summary) figure {
	all, wps := s.WordPress.UsageSeries()
	return figure{[]series{weekly(s, "figure9", "Figure 9: WordPress usage", count,
		[]string{"all sites", "WordPress"}, ints(all), ints(wps))},
		func(w io.Writer) { fmt.Fprintf(w, "mean WordPress share: %s\n", pct(sum.WordPressShare)) }}
}

func figure10(s Study, sum Summary) figure {
	missing, covered := s.SRI.SRISeries()
	return figure{[]series{weekly(s, "figure10",
		"Figure 10: sites with >=1 external library lacking integrity vs fully covered", count,
		[]string{"no integrity", "integrity"}, ints(missing), ints(covered))},
		func(w io.Writer) {
			fmt.Fprintf(w, "mean share with >=1 uncovered external library: %s\n", pct(sum.MissingSRIShare))
			fmt.Fprintf(w, "crossorigin among integrity users: %v\n", s.SRI.CrossoriginShares())
			var names []string
			for _, l := range vulndb.LibrariesWithSRISnippet() {
				names = append(names, l.Name)
			}
			fmt.Fprintf(w, "official sites providing an integrity snippet: %d of %d top libraries (%s)\n",
				len(names), len(vulndb.Libraries()), strings.Join(names, ", "))
		}}
}

func figure11(s Study, sum Summary) figure {
	all, param, always := s.Flash.ScriptAccessSeries()
	return figure{[]series{weekly(s, "figure11",
		"Figure 11: AllowScriptAccess parameter and insecure 'always' option", count,
		[]string{"flash sites", "param used", "always"}, ints(all), ints(param), ints(always))},
		func(w io.Writer) {
			fmt.Fprintf(w, "mean insecure ('always') share of Flash sites: %s\n", pct(sum.InsecureFlashShare))
		}}
}

// figure12 is the CDF of vulnerabilities per page under both rulesets, one
// row per count the CVE ruleset reaches.
func figure12(s Study, sum Summary) figure {
	cve := s.Vuln.VulnCDF(false)
	tvvAt := map[int]float64{}
	for _, p := range s.Vuln.VulnCDF(true) {
		tvvAt[p.Count] = p.CDF
	}
	counts := make([]string, len(cve))
	cdfCVE, cdfTVV := make([]float64, len(cve)), make([]float64, len(cve))
	last := 0.0
	for i, p := range cve {
		t, ok := tvvAt[p.Count]
		if !ok {
			t = last
		}
		last = t
		counts[i], cdfCVE[i], cdfTVV[i] = num(p.Count), p.CDF, t
	}
	return figure{[]series{{file: "figure12", title: "Figure 12: CDF of vulnerabilities per page (CVE vs TVV ranges)",
		key: "#vulns", keyOf: func(i int) string { return counts[i] }, rows: len(cve), step: 1,
		cols: []string{"CDF (CVE)", "CDF (TVV)"}, vals: [][]float64{cdfCVE, cdfTVV}, kind: cdf}},
		func(w io.Writer) {
			fmt.Fprintf(w, "mean vulnerabilities per page: CVE %.2f, TVV %.2f\n",
				sum.MeanVulnsPerPageCVE, sum.MeanVulnsPerPageTVV)
		}}
}

func figure13(s Study, _ Summary) figure {
	return figure{notes: func(w io.Writer) { Figure13(w, s.Findings) }}
}

// figure15 is the usage of the top-5 versions of Bootstrap, Prototype and
// jQuery-UI.
func figure15(s Study, _ Summary) figure {
	var f figure
	for _, slug := range []string{"bootstrap", "prototype", "jquery-ui"} {
		f.tables = append(f.tables, versions(s, "figure15_"+slug, "Figure 15: top-5 version usage — "+slug,
			s.Libs.VersionSeries, slug, s.Libs.TopVersions(slug, 5)...))
	}
	return f
}

// Figure4 renders the disclosed-vs-true version intervals of the jQuery
// advisories.
func Figure4(w io.Writer, findings []poclab.Finding) {
	intervals(w, findings, "jquery", "Figure 4: jQuery disclosed vs true vulnerable versions")
}

// Figure13 renders Figure 4 for the other libraries.
func Figure13(w io.Writer, findings []poclab.Finding) {
	for _, lib := range []string{"moment", "jquery-migrate", "jquery-ui", "bootstrap", "prototype"} {
		intervals(w, findings, lib, "Figure 13: disclosed vs true vulnerable versions — "+lib)
	}
}

// intervals renders, for one library's advisories, each disclosed range
// beside the computed TVV and the versions it understates and overstates.
func intervals(w io.Writer, findings []poclab.Finding, lib, title string) {
	var rows [][]string
	for _, f := range findings {
		if f.Advisory.Lib != lib || f.Advisory.TrueRange.IsZero() {
			continue
		}
		rows = append(rows, []string{
			f.Advisory.ID,
			f.Advisory.CVERange.String(),
			f.TVV.String(),
			versionList(f.Understated()),
			versionList(f.Overstated()),
		})
	}
	Table(w, title,
		[]string{"Advisory", "Disclosed range", "Computed TVV", "Understated versions", "Overstated versions"},
		rows)
}

func versionList(vs []semver.Version) string {
	if len(vs) == 0 {
		return "-"
	}
	if len(vs) <= 4 {
		s := ""
		for i, v := range vs {
			if i > 0 {
				s += " "
			}
			s += v.String()
		}
		return s
	}
	return fmt.Sprintf("%s .. %s (%d versions)", vs[0], vs[len(vs)-1], len(vs))
}
