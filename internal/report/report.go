// Package report defines the study's outputs — the paper's tables, figures
// and headline numbers — and renders them as aligned text (Write) and as CSV
// series (WriteCSVDir). Each figure is defined once, in figures.go, and both
// renderings read that definition.
package report

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"clientres/internal/analysis"
	"clientres/internal/poclab"
)

// Study is what the report reads: one study's collectors, over Weeks weeks,
// and the PoC lab's findings.
type Study struct {
	Weeks     int
	Coll      *analysis.Collection
	Libs      *analysis.LibraryStats
	Vuln      *analysis.VulnPrevalence
	Delay     *analysis.UpdateDelay
	SRI       *analysis.SRI
	Flash     *analysis.Flash
	WordPress *analysis.WordPress
	Disc      *analysis.Discontinued
	Regress   *analysis.Regressions
	Findings  []poclab.Finding
}

// Write renders every table and figure of the paper, the headline
// comparison and the extensions.
func Write(w io.Writer, s Study) {
	sum := Summarize(s)
	fmt.Fprintf(w, "clientres study report — %d weeks\n", s.Weeks)
	Table1(w, s.Libs.Table1())
	Table2(w, s.Findings, s.Vuln)
	Table3(w)
	Table4(w, s.WordPress.Table4())
	Table5(w, s.Libs)
	Table6(w, s.SRI)
	for _, fig := range figures {
		fig(s, sum).write(w)
	}
	Headlines(w, sum)
	extensions(w, s, sum)
}

// WriteCSVDir writes every series table of the report into dir (created if
// missing), one CSV file each, at full resolution: a weekly table has a row
// for every week of the study.
func WriteCSVDir(dir string, s Study) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, fig := range figures {
		for _, t := range fig(s, Summary{}).tables {
			if err := t.writeCSV(filepath.Join(dir, t.file+".csv")); err != nil {
				return fmt.Errorf("report: writing %s.csv: %w", t.file, err)
			}
		}
	}
	return nil
}

// Table writes an aligned text table with a title.
func Table(w io.Writer, title string, headers []string, rows [][]string) {
	fmt.Fprintf(w, "\n== %s ==\n", title)
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		parts := make([]string, len(widths))
		for i := range widths {
			cell := ""
			if i < len(cells) {
				cell = cells[i]
			}
			parts[i] = pad(cell, widths[i])
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	writeRow(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range rows {
		writeRow(row)
	}
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

// CSV writes headers and rows as CSV, quoting only the fields that need it.
func CSV(w io.Writer, headers []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(headers); err != nil {
		return err
	}
	return cw.WriteAll(rows)
}

// pct renders a fraction as a percentage cell.
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// num renders an integer cell.
func num(n int) string { return fmt.Sprintf("%d", n) }

// f1 renders a float with one decimal.
func f1(f float64) string { return fmt.Sprintf("%.1f", f) }

// f2 renders a float with two decimals.
func f2(f float64) string { return fmt.Sprintf("%.2f", f) }
