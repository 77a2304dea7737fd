package clientres

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"clientres/internal/service"
)

func TestRunAndHeadline(t *testing.T) {
	res, err := Run(context.Background(), Config{Domains: 400, Weeks: 40, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Headline()
	if s.MeanCollected <= 0 || s.MeanCollected > 400 {
		t.Errorf("MeanCollected = %.1f", s.MeanCollected)
	}
	if s.VulnerableShareTVV < s.VulnerableShareCVE {
		t.Error("TVV share must be >= CVE share")
	}
	if s.TotalCVEs != 27 {
		t.Errorf("TotalCVEs = %d", s.TotalCVEs)
	}
	if s.IncorrectCVEs < 12 || s.IncorrectCVEs > 14 {
		t.Errorf("IncorrectCVEs = %d, want ~13", s.IncorrectCVEs)
	}
	if s.WordPressShare < 0.18 || s.WordPressShare > 0.36 {
		t.Errorf("WordPressShare = %.3f", s.WordPressShare)
	}
	var b strings.Builder
	res.WriteReport(&b)
	if !strings.Contains(b.String(), "Figure 12") {
		t.Error("report missing figures")
	}
}

func TestRunCrawlMode(t *testing.T) {
	res, err := Run(context.Background(), Config{Domains: 120, Weeks: 8, Seed: 5, Crawl: true, Workers: 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Headline().MeanCollected <= 0 {
		t.Error("crawl mode collected nothing")
	}
}

func TestAuditPage(t *testing.T) {
	html := `<!DOCTYPE html><html><head>
<script src="https://code.jquery.com/jquery-1.12.4.min.js"></script>
<script src="https://maxcdn.bootstrapcdn.com/bootstrap/3.3.7/js/bootstrap.min.js"></script>
<script src="/assets/js/moment-2.10.6.min.js"></script>
</head><body>
<embed src="/x.swf" allowscriptaccess="always">
</body></html>`
	rep := AuditPage(html, "example.com")
	if len(rep.Libraries) != 3 {
		t.Fatalf("libraries = %v", rep.Libraries)
	}
	byAdv := map[string]AuditFinding{}
	for _, f := range rep.Findings {
		byAdv[f.Advisory] = f
	}
	// jQuery 1.12.4 is hit by the 2020 prefilter CVEs and CVE-2019-11358.
	if _, ok := byAdv["CVE-2020-11023"]; !ok {
		t.Errorf("missing CVE-2020-11023: %+v", rep.Findings)
	}
	if f, ok := byAdv["CVE-2019-11358"]; !ok || f.FixedIn != "3.4.0" {
		t.Errorf("CVE-2019-11358 finding wrong: %+v", f)
	}
	// CVE-2020-7656: 1.12.4 is outside the CVE range but inside the TVV —
	// the audit must surface it (and not as PerCVEOnly).
	if f, ok := byAdv["CVE-2020-7656"]; !ok || f.PerCVEOnly {
		t.Errorf("CVE-2020-7656 TVV finding wrong: %+v", f)
	}
	// Bootstrap 3.3.7 is hit by CVE-2019-8331 among others.
	if _, ok := byAdv["CVE-2019-8331"]; !ok {
		t.Error("missing bootstrap finding")
	}
	// Moment 2.10.6 is TVV-vulnerable to CVE-2016-4055.
	if _, ok := byAdv["CVE-2016-4055"]; !ok {
		t.Error("missing moment finding")
	}
	if rep.MissingSRI != 2 {
		t.Errorf("MissingSRI = %d, want 2 (external without integrity)", rep.MissingSRI)
	}
	if !rep.UsesFlash || !rep.InsecureFlash {
		t.Error("flash flags wrong")
	}
}

func TestAuditPageClean(t *testing.T) {
	html := `<script src="https://code.jquery.com/jquery-3.6.0.min.js" integrity="sha384-x" crossorigin="anonymous"></script>`
	rep := AuditPage(html, "example.com")
	if len(rep.Findings) != 0 {
		t.Errorf("jQuery 3.6.0 should be clean, got %+v", rep.Findings)
	}
	if rep.MissingSRI != 0 || rep.UsesFlash {
		t.Errorf("hygiene flags wrong: %+v", rep)
	}
}

func TestAuditPagePerCVEOnly(t *testing.T) {
	// jQuery 1.2.6 is inside CVE-2020-11022's disclosed range but outside
	// its validated TVV — the audit flags it as a CVE-range-only match.
	rep := AuditPage(`<script src="/js/jquery-1.2.6.min.js"></script>`, "example.com")
	found := false
	for _, f := range rep.Findings {
		if f.Advisory == "CVE-2020-11022" {
			found = true
			if !f.PerCVEOnly {
				t.Error("CVE-2020-11022 on 1.2.6 should be PerCVEOnly (overstated range)")
			}
		}
	}
	if !found {
		t.Error("CVE-2020-11022 range match missing")
	}
}

func TestValidateCVEs(t *testing.T) {
	findings, err := ValidateCVEs()
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 27 {
		t.Fatalf("findings = %d", len(findings))
	}
	classes := map[string]int{}
	for _, f := range findings {
		classes[f.Accuracy]++
		if f.Advisory == "" || f.Library == "" || f.CVERange == "" {
			t.Errorf("incomplete finding %+v", f)
		}
	}
	if classes["understated"]+classes["mixed"] == 0 || classes["overstated"] == 0 {
		t.Errorf("accuracy class mix = %v", classes)
	}
}

func TestWeekDate(t *testing.T) {
	if WeekDate(0).Year() != 2018 {
		t.Error("study starts 2018")
	}
	if StudyWeeks != 201 {
		t.Error("study is 201 weeks")
	}
}

// TestEvalPolicyMatchesServerVerdict pins the facade's promise: for the
// same page, host, policy and clock, EvalPolicy marshals to the verdict
// bytes POST /v1/audit?policy=server answers.
func TestEvalPolicyMatchesServerVerdict(t *testing.T) {
	pol, err := CompilePolicy([]byte(`name: gate
rules:
  - name: stale-high
    scope: finding
    when: severity == "high" && age(disclosed) > 90d
  - name: missing-sri
    when: missing_sri > 0
  - name: discontinued
    level: warn
    scope: library
    when: discontinued
`))
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2026, time.January, 2, 12, 0, 0, 0, time.UTC)
	srv := service.New(service.Config{Policy: pol, Now: func() time.Time { return now }})
	defer srv.Close()
	pages := []struct{ html, host string }{
		{`<script src="https://code.jquery.com/jquery-1.12.4.min.js"></script>`, "example.com"},
		{`<html><script src="https://cdn.test/lib.js"></script></html>`, "shop.test"},
		{"<html></html>", "clean.test"},
	}
	for _, pg := range pages {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost,
			"/v1/audit?policy=server&host="+pg.host, strings.NewReader(pg.html)))
		var env struct {
			Policy json.RawMessage `json:"policy"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != 200 {
			t.Fatalf("%s: status %d, body %s: %v", pg.host, rec.Code, rec.Body, err)
		}
		facade, err := json.Marshal(EvalPolicy(pol, pg.html, pg.host, now))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(facade, env.Policy) {
			t.Errorf("%s: EvalPolicy verdict differs from the server's\nfacade: %s\nserver: %s", pg.host, facade, env.Policy)
		}
	}
}
