// Flashscan: the Section 8 Adobe Flash study on a synthetic population —
// the usage decline through the January 2021 end of life, the rank-band
// breakdown, the insecure AllowScriptAccess share, and the country mix of
// post-EOL holdouts (the paper's China case study).
//
//	go run ./examples/flashscan [-domains N]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"clientres"
)

func main() {
	domains := flag.Int("domains", 20000, "population size")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "collecting %d domains x %d weeks...\n", *domains, clientres.StudyWeeks)
	res, err := clientres.Run(context.Background(), clientres.Config{
		Domains: *domains, Seed: 99,
	})
	if err != nil {
		log.Fatal(err)
	}
	in := res.Collectors()

	all, top10k, top1k := in.Flash.UsageSeries()
	checkpoints := []struct {
		label string
		t     time.Time
	}{
		{"Mar 2018 (study start)", time.Date(2018, 3, 5, 0, 0, 0, 0, time.UTC)},
		{"Dec 2020 (pre-EOL)", time.Date(2020, 12, 28, 0, 0, 0, 0, time.UTC)},
		{"Jan 2022 (study end)", time.Date(2022, 1, 3, 0, 0, 0, 0, time.UTC)},
	}
	fmt.Println("Adobe Flash usage (sites):")
	fmt.Printf("  %-24s %8s %10s %10s\n", "", "all", "top-1%", "top-0.1%")
	for _, cp := range checkpoints {
		w := clientres.WeekOf(cp.t)
		fmt.Printf("  %-24s %8d %10d %10d\n", cp.label, all[w], top10k[w], top1k[w])
	}
	fmt.Printf("\nmean Flash sites after end of life: %.0f (paper: 3,553 of 1M)\n", in.Flash.MeanPostEOL())
	fmt.Printf("insecure AllowScriptAccess='always': %.1f%% of Flash sites on average (paper: 24.7%%)\n",
		in.Flash.MeanInsecureShare()*100)
	fmt.Printf("  trend: %.1f%% early -> %.1f%% late (paper: ~21%% -> ~30%%)\n",
		in.Flash.InsecureShareAt(4)*100, in.Flash.InsecureShareAt(clientres.StudyWeeks-4)*100)

	fmt.Println("\npost-EOL Flash holdouts by operator country:")
	for i, cc := range in.Flash.PostEOLCountries() {
		if i >= 8 {
			break
		}
		fmt.Printf("  %-4s %d domains\n", cc.Country, cc.Domains)
	}
	fmt.Println("\n(The paper traces the China-heavy tail to the 360 Extreme browser and")
	fmt.Println(" flash.cn, the one remaining distribution channel — see Table 3.)")
}
