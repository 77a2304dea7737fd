package clientres

import (
	"reflect"
	"testing"

	"clientres/internal/fingerprint"
	"clientres/internal/vulndb"
	"clientres/internal/webgen"
)

// auditShape is the facade's audit result from before AuditPage returned
// service.Audit's response: the fields the reference loop below computes.
type auditShape struct {
	Libraries                []string // slug@version
	Findings                 []findingShape
	MissingSRI               int
	UsesFlash, InsecureFlash bool
}

type findingShape struct {
	Library, Version, Advisory, Attack, FixedIn, Disclosed string
	PerCVEOnly                                             bool
}

// shapeOf projects an audit report onto auditShape.
func shapeOf(rep AuditReport) auditShape {
	out := auditShape{MissingSRI: rep.MissingSRI, UsesFlash: rep.UsesFlash, InsecureFlash: rep.InsecureFlash}
	for _, l := range rep.Libraries {
		label := l.Slug
		if l.Version != "" {
			label += "@" + l.Version
		}
		out.Libraries = append(out.Libraries, label)
	}
	for _, f := range rep.Findings {
		out.Findings = append(out.Findings, findingShape{
			Library: f.Library, Version: f.Version,
			Advisory: f.Advisory, Attack: f.Attack,
			FixedIn: f.FixedIn, Disclosed: f.Disclosed,
			PerCVEOnly: f.PerCVEOnly,
		})
	}
	return out
}

// referenceAuditPage is the facade's own match loop from before AuditPage
// became service.Audit, kept as the oracle the audit must reproduce.
func referenceAuditPage(html, pageHost string) auditShape {
	det := fingerprint.Page(html, pageHost)
	var rep auditShape
	for _, hit := range det.Libraries {
		label := hit.Slug
		if !hit.Version.IsZero() {
			label += "@" + hit.Version.String()
		}
		rep.Libraries = append(rep.Libraries, label)
		if hit.External && !hit.SRI {
			rep.MissingSRI++
		}
		if !hit.Known || hit.Version.IsZero() {
			continue
		}
		for _, adv := range vulndb.AdvisoriesFor(hit.Slug) {
			inTVV := adv.EffectiveTrueRange().Contains(hit.Version)
			inCVE := adv.CVERange.Contains(hit.Version)
			if !inTVV && !inCVE {
				continue
			}
			finding := findingShape{
				Library: hit.Slug, Version: hit.Version.String(),
				Advisory: adv.ID, Attack: string(adv.Attack),
				Disclosed:  adv.Disclosed.Format("2006-01-02"),
				PerCVEOnly: inCVE && !inTVV,
			}
			if !adv.Patched.IsZero() {
				finding.FixedIn = adv.Patched.String()
			}
			rep.Findings = append(rep.Findings, finding)
		}
	}
	if det.Flash != nil {
		rep.UsesFlash = true
		rep.InsecureFlash = det.Flash.Always
	}
	return rep
}

// TestAuditPageProjectsServiceAudit: AuditPage, projected onto the
// reference's shape, deep-equals the reference loop on generated landing
// pages, plain and bundled, across the study's weeks — the pages that find
// nothing included.
func TestAuditPageProjectsServiceAudit(t *testing.T) {
	for _, frac := range []float64{0, 0.5} {
		eco := webgen.New(webgen.Config{Domains: 80, Seed: 11, Bundling: webgen.DefaultBundling(frac)})
		pages, findings := 0, 0
		for i := range eco.Sites {
			for _, week := range []int{0, 60, 120, 200} {
				html, status := eco.PageHTML(i, week)
				if status != 200 {
					continue
				}
				host := eco.Sites[i].Domain.Name
				got, want := shapeOf(AuditPage(html, host)), referenceAuditPage(html, host)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("bundle fraction %.1f, %s week %d:\n got %+v\nwant %+v", frac, host, week, got, want)
				}
				pages++
				findings += len(got.Findings)
			}
		}
		if pages < 100 || findings == 0 {
			t.Fatalf("bundle fraction %.1f: %d pages with %d findings is too thin a sample", frac, pages, findings)
		}
	}
}
