package report

import (
	"fmt"
	"io"

	"clientres/internal/vulndb"
)

// Summary carries the paper's headline findings as measured on one study.
type Summary struct {
	// MeanCollected is the average number of usable pages per week.
	MeanCollected float64
	// VulnerableShareCVE / VulnerableShareTVV are the average shares of
	// sites carrying ≥1 known vulnerability under the CVE-disclosed and
	// true vulnerable-version ranges (paper: 41.2 % / 43.2 %).
	VulnerableShareCVE, VulnerableShareTVV float64
	// MeanVulnsPerPageCVE / TVV mirror Figure 12 (paper: 0.79 / 0.97).
	MeanVulnsPerPageCVE, MeanVulnsPerPageTVV float64
	// UpdateDelayDays is the mean window of vulnerability under CVE ranges
	// (paper: 531.2); UpdateDelayDaysTVV restricts to understated CVEs
	// under TVV ranges (paper: 701.2).
	UpdateDelayDays, UpdateDelayDaysTVV float64
	// UpdatedSites is the number of closed update windows (paper: 25,337).
	UpdatedSites int
	// MissingSRIShare is the share of external-library sites with ≥1
	// uncovered inclusion (paper: 99.7 %).
	MissingSRIShare float64
	// FlashPostEOL is the mean weekly count of Flash sites after Jan 2021
	// (paper: 3,553 of 1M).
	FlashPostEOL float64
	// InsecureFlashShare is the AllowScriptAccess="always" share among
	// Flash sites (paper: 24.7 %).
	InsecureFlashShare float64
	// WordPressShare mirrors Figure 9 (paper: 26.9 %).
	WordPressShare float64
	// IncorrectCVEs counts advisories whose PoC-validated range disagrees
	// with the disclosed range (paper: 13 of 27).
	IncorrectCVEs, TotalCVEs int
	// JQueryCookieUsers counts the domains that used the discontinued
	// jQuery-Cookie, JQueryCookieMigrated those of them that moved to
	// JS-Cookie during the study (paper: 39 % over seven years).
	JQueryCookieUsers, JQueryCookieMigrated int
}

// Summarize computes the headline numbers of s, each once. A study of
// findings alone (no collectors, as cmd/vvexp has) summarizes only the
// advisory counts.
func Summarize(s Study) Summary {
	var sum Summary
	if s.Coll != nil {
		cve, tvv := s.Delay.Result(false, false), s.Delay.Result(true, true)
		sum = Summary{
			MeanCollected:       s.Coll.MeanCollected(),
			VulnerableShareCVE:  s.Vuln.MeanVulnerableShare(false),
			VulnerableShareTVV:  s.Vuln.MeanVulnerableShare(true),
			MeanVulnsPerPageCVE: s.Vuln.MeanVulnsPerSite(false),
			MeanVulnsPerPageTVV: s.Vuln.MeanVulnsPerSite(true),
			UpdateDelayDays:     cve.MeanDays,
			UpdateDelayDaysTVV:  tvv.MeanDays,
			UpdatedSites:        cve.Updated,
			MissingSRIShare:     s.SRI.MissingSRIShare(),
			FlashPostEOL:        s.Flash.MeanPostEOL(),
			InsecureFlashShare:  s.Flash.MeanInsecureShare(),
			WordPressShare:      s.WordPress.MeanShare(),
		}
		sum.JQueryCookieUsers, sum.JQueryCookieMigrated = s.Disc.MigrationStats()
	}
	sum.TotalCVEs = len(s.Findings)
	for _, f := range s.Findings {
		if f.Accuracy != vulndb.Accurate {
			sum.IncorrectCVEs++
		}
	}
	return sum
}

// Headlines prints the headline findings beside the paper's values.
func Headlines(w io.Writer, sum Summary) {
	fmt.Fprintf(w, "\n== Headline findings (measured vs paper) ==\n")
	fmt.Fprintf(w, "vulnerable sites (CVE ranges):  %s   (paper: 41.2%%)\n", pct(sum.VulnerableShareCVE))
	fmt.Fprintf(w, "vulnerable sites (TVV ranges):  %s   (paper: 43.2%%)\n", pct(sum.VulnerableShareTVV))
	fmt.Fprintf(w, "mean vulns/page CVE vs TVV:     %.2f vs %.2f  (paper: 0.79 vs 0.97)\n",
		sum.MeanVulnsPerPageCVE, sum.MeanVulnsPerPageTVV)
	fmt.Fprintf(w, "update delay (CVE ranges):      %.1f days over %d updated windows (paper: 531.2 days, 25,337 sites)\n",
		sum.UpdateDelayDays, sum.UpdatedSites)
	fmt.Fprintf(w, "update delay (TVV, understated CVEs): %.1f days (paper: 701.2 days)\n", sum.UpdateDelayDaysTVV)
	fmt.Fprintf(w, "sites with >=1 ext lib w/o SRI: %s   (paper: 99.7%%)\n", pct(sum.MissingSRIShare))
	fmt.Fprintf(w, "Flash sites after EOL:          %.0f   (paper: 3,553 of 1M)\n", sum.FlashPostEOL)
	fmt.Fprintf(w, "insecure AllowScriptAccess:     %s   (paper: 24.7%%)\n", pct(sum.InsecureFlashShare))
	fmt.Fprintf(w, "jquery-cookie users migrated:   %d of %d (paper: 39%% over 7 years)\n",
		sum.JQueryCookieMigrated, sum.JQueryCookieUsers)
}
