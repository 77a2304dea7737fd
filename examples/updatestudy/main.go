// Updatestudy: measure web developers' updating behaviour (Section 7) on a
// synthetic population — the window of vulnerability per advisory, the
// WordPress-driven jQuery 3.5.1 jump of December 2020, and the longer true
// delays once understated CVE ranges are corrected.
//
//	go run ./examples/updatestudy [-domains N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"clientres"
)

func main() {
	domains := flag.Int("domains", 4000, "population size")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "collecting %d domains x %d weeks...\n", *domains, clientres.StudyWeeks)
	res, err := clientres.Run(context.Background(), clientres.Config{
		Domains: *domains, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	in := res.Collectors()

	// Headline windows of vulnerability.
	cve := in.Delay.Result(false, false)
	tvvUnder := in.Delay.Result(true, true)
	fmt.Printf("window of vulnerability (CVE ranges):        %.1f days across %d updated site-advisory pairs (paper: 531.2 days)\n",
		cve.MeanDays, cve.Updated)
	fmt.Printf("window of vulnerability (TVV, understated):  %.1f days (paper: 701.2 days)\n", tvvUnder.MeanDays)
	fmt.Printf("windows still open at the end of the study:  %d\n\n", cve.Censored)

	// Per-advisory breakdown, slowest first.
	type row struct {
		id   string
		days float64
	}
	var rows []row
	for id, days := range cve.PerAdvisory {
		rows = append(rows, row{id, days})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].days != rows[j].days {
			return rows[i].days > rows[j].days
		}
		return rows[i].id < rows[j].id // advisories of one release tie
	})
	fmt.Println("mean update delay per advisory (CVE ranges):")
	for _, r := range rows {
		fmt.Printf("  %-20s %7.1f days\n", r.id, r.days)
	}

	// The December 2020 WordPress auto-update event (Figure 7).
	jump := func(ver string, t time.Time) int {
		return in.Libs.VersionSeries("jquery", ver)[clientres.WeekOf(t)]
	}
	nov := time.Date(2020, 11, 2, 0, 0, 0, 0, time.UTC)
	mar := time.Date(2021, 3, 1, 0, 0, 0, 0, time.UTC)
	fmt.Printf("\njQuery 3.5.1 sites: %d (Nov 2020) -> %d (Mar 2021)  [WordPress 5.6 auto-update]\n",
		jump("3.5.1", nov), jump("3.5.1", mar))
	fmt.Printf("jQuery 1.12.4 sites: %d (Nov 2020) -> %d (Mar 2021)\n",
		jump("1.12.4", nov), jump("1.12.4", mar))
}
