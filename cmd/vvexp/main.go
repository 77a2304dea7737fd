// Command vvexp runs the Version Validation Experiment of Section 6.4: it
// sets up an emulated environment per catalogued library version, runs each
// advisory's proof of concept in every environment, and reports the
// computed True Vulnerable Versions against the CVE-disclosed ranges
// (Table 2's accuracy marks, Figure 4, Figure 13).
//
// Usage:
//
//	vvexp            # all advisories
//	vvexp CVE-2020-7656
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"clientres/internal/poclab"
	"clientres/internal/report"
)

func main() {
	flag.Parse()
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()

	var findings []poclab.Finding
	if id := flag.Arg(0); id != "" {
		f, err := poclab.Run(id)
		if err != nil {
			log.Fatalf("vvexp: %v", err)
		}
		findings = []poclab.Finding{f}
	} else {
		var err error
		findings, err = poclab.RunAll()
		if err != nil {
			log.Fatalf("vvexp: %v", err)
		}
	}

	render(w, findings)
}

// render writes Table 2, Figure 4, Figure 13 and the incorrect-version
// count for findings.
func render(w io.Writer, findings []poclab.Finding) {
	report.Table2(w, findings, nil)
	report.Figure4(w, findings)
	report.Figure13(w, findings)

	sum := report.Summarize(report.Study{Findings: findings})
	fmt.Fprintf(w, "\n%d of %d advisories state incorrect versions (paper: 13 of 27)\n",
		sum.IncorrectCVEs, sum.TotalCVEs)
}
