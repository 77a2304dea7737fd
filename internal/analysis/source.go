package analysis

import (
	"clientres/internal/alexa"
	"clientres/internal/cdn"
	"clientres/internal/fingerprint"
	"clientres/internal/store"
	"clientres/internal/webgen"
)

// ObservationFromCrawl reduces one fetched page to an Observation using the
// fingerprint engine's detection — the production path of the pipeline.
func ObservationFromCrawl(dom alexa.Domain, week, status int, body string, det fingerprint.Detection) store.Observation {
	obs := store.Observation{
		Domain: dom.Name, Rank: dom.Rank, Country: dom.Country,
		Week: week, Status: status, Bytes: len(body),
	}
	if !obs.OK() {
		return obs
	}
	obs.HasJS = det.Resources.JavaScript
	if !det.WordPress.IsZero() {
		obs.WordPress = det.WordPress.String()
	}
	for _, hit := range det.Libraries {
		rec := store.LibRecord{
			Slug: hit.Slug, Known: hit.Known,
			External: hit.External, Host: hit.Host,
			SRI: hit.SRI, Crossorigin: hit.Crossorigin,
			Sig: hit.ViaSignature,
		}
		if !hit.Version.IsZero() {
			rec.Version = hit.Version.String()
		}
		obs.Libs = append(obs.Libs, rec)
	}
	if det.Flash != nil {
		obs.Flash = &store.FlashRecord{
			ScriptAccessParam: det.Flash.ScriptAccessParam,
			Always:            det.Flash.Always,
			ViaSWFObject:      det.Flash.ViaSWFObject,
			Visible:           det.Flash.Visible,
		}
	}
	obs.Resources = store.ResourceFlags{
		JavaScript:   det.Resources.JavaScript,
		CSS:          det.Resources.CSS,
		Favicon:      det.Resources.Favicon,
		ImportedHTML: det.Resources.ImportedHTML,
		XML:          det.Resources.XML,
		SVG:          det.Resources.SVG,
		Flash:        det.Resources.Flash,
		AXD:          det.Resources.AXD,
	}
	return obs
}

// ObservationFromTruth reduces generator ground truth to an Observation —
// the scale path that skips rendering and re-detection. Its output is
// validated against the crawl path by the pipeline-equivalence tests.
func ObservationFromTruth(dom alexa.Domain, t webgen.PageTruth) store.Observation {
	obs := store.Observation{
		Domain: dom.Name, Rank: dom.Rank, Country: dom.Country,
		Week: t.Week, Status: t.Status,
	}
	switch {
	case t.Status != 200:
		return obs
	case t.EmptyPage:
		obs.Bytes = 64 // under the 400-byte threshold, like the real page
		return obs
	default:
		obs.Bytes = 4096
	}
	obs.HasJS = t.HasJS
	if !t.WordPress.IsZero() {
		obs.WordPress = t.WordPress.String()
	}
	if n := len(t.Libs) + len(t.Tail); n > 0 {
		obs.Libs = make([]store.LibRecord, 0, n)
	}
	for _, lib := range t.Libs {
		rec := store.LibRecord{
			Slug: lib.Slug, Known: true,
			External: lib.External, Host: lib.Host,
			SRI: lib.SRI, Crossorigin: lib.Crossorigin,
			// Bundled libraries reach the crawl path only through the
			// content-signature scanner, so the truth path marks them the
			// same way.
			Sig: t.Bundled,
		}
		// Version-control-hosted URLs carry no version; the truth path is
		// deliberately version-blind there too, so direct and crawl
		// collection are observationally equivalent.
		if !lib.Version.IsZero() && !(lib.External && cdn.IsVersionControl(lib.Host)) {
			rec.Version = lib.Version.String()
		}
		obs.Libs = append(obs.Libs, rec)
	}
	for _, tl := range t.Tail {
		obs.Libs = append(obs.Libs, store.LibRecord{Slug: tl.Name, Version: tl.Version})
	}
	if t.Flash != nil {
		obs.Flash = &store.FlashRecord{
			ScriptAccessParam: t.Flash.ScriptAccessParam,
			Always:            t.Flash.Always,
			ViaSWFObject:      t.Flash.ViaSWFObject,
			Visible:           t.Flash.Visible,
		}
	}
	obs.Resources = store.ResourceFlags{
		JavaScript:   t.HasJS,
		CSS:          t.UsesCSS,
		Favicon:      t.UsesFavicon,
		ImportedHTML: t.UsesImportedHTML,
		XML:          t.UsesXML,
		SVG:          t.UsesSVG,
		Flash:        t.Flash != nil,
		AXD:          t.UsesAXD,
	}
	return obs
}

// TruthSource streams ground-truth observations for an ecosystem, weeks
// ascending (the order the stateful collectors rely on).
type TruthSource struct {
	Eco *webgen.Ecosystem
}

// ForEach feeds every (site, week) observation to fn.
func (s TruthSource) ForEach(fn func(store.Observation)) {
	for w := 0; w < s.Eco.Cfg.Weeks; w++ {
		for i := range s.Eco.Sites {
			fn(ObservationFromTruth(s.Eco.Sites[i].Domain, s.Eco.Truth(i, w)))
		}
	}
}

// Run streams the source through a runner and returns it, for chaining.
func (s TruthSource) Run(r *Runner) *Runner {
	s.ForEach(r.Observe)
	return r
}
