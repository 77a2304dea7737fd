package report

import (
	"encoding/csv"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"clientres/internal/analysis"
	"clientres/internal/poclab"
	"clientres/internal/webgen"
)

// buildSmall runs a small pipeline for rendering tests.
func buildSmall(t *testing.T) Study {
	t.Helper()
	eco := webgen.New(webgen.Config{Domains: 600, Weeks: 60, Seed: 4})
	weeks := eco.Cfg.Weeks
	s := Study{
		Weeks:     weeks,
		Coll:      analysis.NewCollection(weeks),
		Libs:      analysis.NewLibraryStats(weeks),
		Vuln:      analysis.NewVulnPrevalence(weeks),
		Delay:     analysis.NewUpdateDelay(weeks),
		SRI:       analysis.NewSRI(weeks),
		Flash:     analysis.NewFlash(weeks, eco.Cfg.Domains),
		WordPress: analysis.NewWordPress(weeks),
		Disc:      analysis.NewDiscontinued(weeks),
		Regress:   analysis.NewRegressions(weeks),
	}
	analysis.TruthSource{Eco: eco}.Run(analysis.NewRunner(s.Coll, s.Libs, s.Vuln, s.Delay,
		s.SRI, s.Flash, s.WordPress, s.Disc, s.Regress))
	var err error
	if s.Findings, err = poclab.Findings(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTableRendering(t *testing.T) {
	var b strings.Builder
	Table(&b, "demo", []string{"a", "bb"}, [][]string{{"1", "2"}, {"333", "4"}})
	out := b.String()
	if !strings.Contains(out, "== demo ==") || !strings.Contains(out, "333") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Errorf("line count = %d:\n%s", len(lines), out)
	}
}

func TestCSVRendering(t *testing.T) {
	var b strings.Builder
	CSV(&b, []string{"x", "y"}, [][]string{{"1", "2"}})
	if b.String() != "x,y\n1,2\n" {
		t.Errorf("csv = %q", b.String())
	}
	// Only a field that needs quoting is quoted.
	b.Reset()
	CSV(&b, []string{"date", "a, b", `say "hi"`, "top-1%"}, nil)
	if want := "date,\"a, b\",\"say \"\"hi\"\"\",top-1%\n"; b.String() != want {
		t.Errorf("csv = %q, want %q", b.String(), want)
	}
}

func TestAllRenderersProduceOutput(t *testing.T) {
	var b strings.Builder
	Write(&b, buildSmall(t))
	out := b.String()
	for _, want := range []string{
		"Table 1:", "Table 2:", "Table 3:", "Table 4:", "Table 5:", "Table 6",
		"Figure 2a", "Figure 2b", "Figure 3a", "Figure 3b", "Figure 4",
		"Figure 5", "Figure 6", "Figure 7a", "Figure 7b", "Figure 8",
		"Figure 9", "Figure 10", "Figure 11", "Figure 12", "Figure 13",
		"Figure 14", "Figure 15", "Headline findings", "Extensions",
		"jQuery", "CVE-2020-7656", "360 Browser", "understated",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if len(out) < 5000 {
		t.Errorf("combined report suspiciously small: %d bytes", len(out))
	}
}

// TestWriteCSVDir checks the CSV export against the text report: one file
// per series table the report prints, each weekly file with every week of
// the study under the text table's column headers.
func TestWriteCSVDir(t *testing.T) {
	s := buildSmall(t)
	dir := filepath.Join(t.TempDir(), "csv")
	if err := WriteCSVDir(dir, s); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 17 {
		t.Fatalf("csv files = %d, want 17", len(entries))
	}
	var text strings.Builder
	Write(&text, s)
	for _, e := range entries {
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		// The text report has a table with the same header row.
		cells := make([]string, len(rows[0]))
		for i, c := range rows[0] {
			cells[i] = regexp.QuoteMeta(c)
		}
		if !regexp.MustCompile(`\n` + strings.Join(cells, ` +`) + `\n`).MatchString(text.String()) {
			t.Errorf("%s: header %q is no text table's", e.Name(), rows[0])
		}
		if e.Name() == "figure12.csv" {
			if got := strings.Join(rows[0], ","); got != "#vulns,CDF (CVE),CDF (TVV)" {
				t.Errorf("figure12 header = %q", got)
			}
			if last := rows[len(rows)-1]; last[1] != "1.000000" {
				t.Errorf("figure12 last row = %q, want CDF 1.000000", last)
			}
			continue
		}
		if rows[0][0] != "date" || len(rows) != 1+s.Weeks {
			t.Errorf("%s: header %q, %d rows; want date first and %d weeks", e.Name(), rows[0], len(rows)-1, s.Weeks)
			continue
		}
		if rows[1][0] != "2018-03-05" {
			t.Errorf("%s: first row = %q", e.Name(), rows[1])
		}
	}
	// Counts are integers, shares fractions with four decimals.
	fig2a, _ := os.ReadFile(filepath.Join(dir, "figure2a.csv"))
	lines := strings.Split(string(fig2a), "\n")
	if lines[0] != "date,attempted,collected" || !regexp.MustCompile(`^2018-03-05,\d+,\d+$`).MatchString(lines[1]) {
		t.Errorf("figure2a = %q", lines[:2])
	}
	fig3a, _ := os.ReadFile(filepath.Join(dir, "figure3a.csv"))
	if row := strings.Split(string(fig3a), "\n")[1]; !regexp.MustCompile(`^2018-03-05(,0\.\d{4}){5}$`).MatchString(row) {
		t.Errorf("figure3a first row = %q", row)
	}
}

func TestTable2MarksAccuracy(t *testing.T) {
	findings, err := poclab.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	Table2(&b, findings, nil)
	out := b.String()
	for _, want := range []string{"understated", "overstated", "accurate"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 missing accuracy class %q", want)
		}
	}
}

func TestFigure4ShowsUnderstatedVersions(t *testing.T) {
	findings, err := poclab.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	Figure4(&b, findings)
	out := b.String()
	if !strings.Contains(out, "CVE-2020-7656") {
		t.Error("Figure 4 missing CVE-2020-7656")
	}
	// The headline understatement: versions up to 3.5.1 are vulnerable.
	if !strings.Contains(out, "3.5.1") {
		t.Errorf("Figure 4 should surface understated versions up to 3.5.1:\n%s", out)
	}
}
