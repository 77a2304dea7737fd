// Auditsite: the Retire.js-style single-page scanner built on the study's
// fingerprint engine and CVE/TVV database. Give it an HTML file (or run it
// without arguments to audit a built-in sample) and it reports every
// detected library, the vulnerabilities matching the detected versions —
// under the *validated* true-vulnerable-version ranges, flagging matches
// that exist only under the inaccurate CVE-disclosed ranges — plus SRI and
// Flash hygiene problems.
//
// By default the audit runs in-process. With -serve the page is instead
// POSTed to a running audit service (cmd/serve), which returns the same
// verdicts plus days-since-patch, and exercises the service's cache and
// backpressure path. With -policy the audit is additionally gated by a
// compiled policy file (evaluated in-process, or sent along with the
// request in -serve mode — both produce identical verdicts), and the
// process exits 1 when the overall verdict is "fail":
//
//	go run ./examples/auditsite [-serve http://127.0.0.1:8080] [-policy gate.yaml] [page.html [host]]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"strings"
	"time"

	"clientres"
)

// sample is a page exhibiting the paper's headline problems: the dominant
// outdated jQuery, an old Bootstrap, a missing-integrity CDN include, and a
// leftover Flash embed with AllowScriptAccess=always.
const sample = `<!DOCTYPE html>
<html><head>
<meta name="generator" content="WordPress 5.4">
<script src="/wp-includes/js/jquery/jquery.min.js?ver=1.12.4"></script>
<script src="https://maxcdn.bootstrapcdn.com/bootstrap/3.3.7/js/bootstrap.min.js"></script>
<script src="https://cdnjs.cloudflare.com/ajax/libs/moment/2.10.6/moment.min.js"></script>
</head><body>
<embed src="/media/banner.swf" allowscriptaccess="always" type="application/x-shockwave-flash">
</body></html>`

func main() {
	serve := flag.String("serve", "", "base URL of a running cmd/serve instance; empty audits in-process")
	policyFile := flag.String("policy", "", "policy file (YAML or JSON) gating the audit; exit code 1 when the overall verdict is \"fail\"")
	nowFlag := flag.String("now", "", "audit clock as RFC3339 for -policy verdicts (default wall clock; in -serve mode the server's clock rules)")
	flag.Parse()

	html, host := sample, "example.com"
	if flag.NArg() > 0 {
		data, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			log.Fatalf("auditsite: %v", err)
		}
		html = string(data)
	}
	if flag.NArg() > 1 {
		host = flag.Arg(1)
	}

	var polSrc []byte
	var pol *clientres.Policy
	if *policyFile != "" {
		src, err := os.ReadFile(*policyFile)
		if err != nil {
			log.Fatalf("auditsite: %v", err)
		}
		if pol, err = clientres.CompilePolicy(src); err != nil {
			log.Fatalf("auditsite: policy %s: %v", *policyFile, err)
		}
		polSrc = src
	}
	var now time.Time
	if *nowFlag != "" {
		t, err := time.Parse(time.RFC3339, *nowFlag)
		if err != nil {
			log.Fatalf("auditsite: bad -now: %v", err)
		}
		now = t
	}

	var rep clientres.AuditReport
	var verdict *clientres.PolicyVerdict
	if *serve != "" {
		rep, verdict = auditRemote(*serve, html, host, polSrc)
	} else {
		rep = clientres.AuditPage(html, host)
		if pol != nil {
			v := clientres.EvalPolicy(pol, html, host, now)
			verdict = &v
		}
	}

	fmt.Printf("detected libraries (%d):\n", len(rep.Libraries))
	for _, lib := range rep.Libraries {
		label := lib.Slug
		if lib.Version != "" {
			label += "@" + lib.Version
		}
		fmt.Printf("  - %s\n", label)
	}
	if len(rep.Findings) == 0 {
		fmt.Println("no known vulnerabilities match the detected versions")
	} else {
		fmt.Printf("\nvulnerabilities (%d):\n", len(rep.Findings))
		for _, f := range rep.Findings {
			fix := "no fixed version"
			if f.FixedIn != "" {
				fix = "fixed in " + f.FixedIn
				if f.PatchAvailableDays > 0 {
					fix += fmt.Sprintf(", patch available %d days", f.PatchAvailableDays)
				}
			}
			note := ""
			if f.PerCVEOnly {
				note = "  [matches the CVE's disclosed range only — the validated range says NOT vulnerable]"
			}
			fmt.Printf("  - %s@%s: %s (%s, disclosed %s, %s)%s\n",
				f.Library, f.Version, f.Advisory, f.Attack, f.Disclosed, fix, note)
		}
	}
	fmt.Println()
	if rep.MissingSRI > 0 {
		fmt.Printf("hygiene: %d external script(s) without an integrity attribute\n", rep.MissingSRI)
	}
	if rep.UsesFlash {
		fmt.Println("hygiene: page embeds Adobe Flash (end-of-life since Jan 2021)")
		if rep.InsecureFlash {
			fmt.Println("hygiene: AllowScriptAccess is 'always' — cross-origin .swf can script this page")
		}
	}
	if verdict != nil {
		fmt.Printf("\npolicy %q: %s\n", verdict.Policy, verdict.Overall)
		for _, rv := range verdict.Rules {
			line := fmt.Sprintf("  [%s] %s", rv.Outcome, rv.Rule)
			if rv.Matched > 0 {
				line += fmt.Sprintf(" (matched %d)", rv.Matched)
			}
			if rv.Msg != "" {
				line += ": " + rv.Msg
			}
			fmt.Println(line)
			for _, d := range rv.Detail {
				fmt.Printf("      - %s\n", d)
			}
		}
		if verdict.Overall == "fail" {
			os.Exit(1)
		}
	}
}

// auditRemote POSTs the page to a running audit service and decodes its
// JSON response into the report the in-process path produces. When polSrc
// is set, the policy source travels with the request and the service
// answers with the {"audit":…,"policy":…} envelope; the returned verdict
// is the server's.
func auditRemote(base, html, host string, polSrc []byte) (clientres.AuditReport, *clientres.PolicyVerdict) {
	url := strings.TrimRight(base, "/") + "/v1/audit?host=" + host
	var resp *http.Response
	var err error
	if len(polSrc) > 0 {
		reqBody, merr := json.Marshal(struct {
			HTML   string `json:"html"`
			Host   string `json:"host"`
			Policy string `json:"policy"`
		}{HTML: html, Host: host, Policy: string(polSrc)})
		if merr != nil {
			log.Fatalf("auditsite: encode request: %v", merr)
		}
		resp, err = http.Post(url, "application/json", strings.NewReader(string(reqBody)))
	} else {
		resp, err = http.Post(url, "text/html", strings.NewReader(html))
	}
	if err != nil {
		log.Fatalf("auditsite: POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("auditsite: read response: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("auditsite: service returned %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	var verdict *clientres.PolicyVerdict
	if len(polSrc) > 0 {
		var env struct {
			Audit  json.RawMessage          `json:"audit"`
			Policy *clientres.PolicyVerdict `json:"policy"`
		}
		if err := json.Unmarshal(body, &env); err != nil || env.Policy == nil {
			log.Fatalf("auditsite: decode policy envelope: %v", err)
		}
		body, verdict = env.Audit, env.Policy
	}
	var rep clientres.AuditReport
	if err := json.Unmarshal(body, &rep); err != nil {
		log.Fatalf("auditsite: decode response: %v", err)
	}
	return rep, verdict
}
