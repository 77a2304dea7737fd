// Package fingerprint identifies client-side resources and their versions
// in static HTML, standing in for the Wappalyzer tool the paper used
// (Section 4.2).
//
// Like Wappalyzer it works from markup alone: script/link URLs, their file
// names and path shapes, query-string cache busters, meta generator tags,
// and Flash object/embed markup. It shares no code with the page generator —
// the study's pipeline tests validate that detection over generated pages
// recovers the generator's ground truth.
package fingerprint

import (
	"net/url"
	"regexp"
	"strings"

	"clientres/internal/htmlx"
	"clientres/internal/semver"
)

// LibraryHit is one detected JavaScript library inclusion.
type LibraryHit struct {
	// Slug is the canonical library identifier ("jquery"); for libraries
	// outside the known top-15 it is the normalized file base name.
	Slug string
	// Known marks slugs from the known-library table (the top 15).
	Known bool
	// Version is the detected version; zero when the URL carries none
	// (typical for version-control-hosted files).
	Version semver.Version
	// External marks inclusion from another host; Host is that host.
	External bool
	Host     string
	// SRI marks an integrity attribute on the tag; Crossorigin is the
	// crossorigin attribute value ("" when absent).
	SRI         bool
	Crossorigin string
	// ViaSignature marks hits whose library or version came from the
	// content-signature scanner over a fetched script body (see
	// signature.go) rather than from the URL alone — the only way bundled
	// dependencies are ever detected.
	ViaSignature bool
	// SourceURL is the raw src attribute, for diagnostics.
	SourceURL string
}

// FlashHit captures detected Adobe Flash embedding.
type FlashHit struct {
	// ScriptAccessParam marks an explicit AllowScriptAccess parameter;
	// Always marks the insecure "always" option (Section 8).
	ScriptAccessParam bool
	Always            bool
	// ViaSWFObject marks script-driven embedding through SWFObject.
	ViaSWFObject bool
	// Visible reports whether any Flash embed actually renders on-page;
	// false means every embed is positioned off-screen or hidden (the
	// paper's "invisible cases" of Section 8).
	Visible bool
}

// Resources flags which of the paper's top-8 resource types a page uses
// (Figure 2b).
type Resources struct {
	JavaScript, CSS, Favicon, ImportedHTML, XML, SVG, Flash, AXD bool
}

// Detection is the full fingerprint of one page.
type Detection struct {
	Libraries []LibraryHit
	// WordPress is the platform version from the generator meta tag (zero
	// when absent); WordPressSeen is true when WP path markers appear even
	// without a version.
	WordPress     semver.Version
	WordPressSeen bool
	Flash         *FlashHit
	Resources     Resources
	// ScriptCount is the total number of <script> tags.
	ScriptCount int
}

// Lib returns the first hit for a slug.
func (d Detection) Lib(slug string) (LibraryHit, bool) {
	for _, h := range d.Libraries {
		if h.Slug == slug {
			return h, true
		}
	}
	return LibraryHit{}, false
}

// knownBases maps file base names (lowercase, ".min"/"-min"/".pkgd"
// stripped) to canonical slugs. Order-independent; longest-match is handled
// by normalization.
var knownBases = map[string]string{
	"jquery":         "jquery",
	"jquery-ui":      "jquery-ui",
	"jquery-migrate": "jquery-migrate",
	"jquery.cookie":  "jquery-cookie",
	"js.cookie":      "js-cookie",
	"bootstrap":      "bootstrap",
	"modernizr":      "modernizr",
	"underscore":     "underscore",
	"isotope":        "isotope",
	"popper":         "popper",
	"moment":         "moment",
	"require":        "requirejs",
	"requirejs":      "requirejs",
	"swfobject":      "swfobject",
	"prototype":      "prototype",
	"polyfill":       "polyfill",
}

// knownPathSlugs recognizes libraries from CDN directory shapes even when
// the file name alone is ambiguous (e.g. /ajax/libs/jquery-ui/1.12.1/...).
var knownPathSlugs = []string{
	"jquery-ui", "jquery-migrate", "jquery-cookie", "js-cookie",
	"jquery", "bootstrap", "modernizr", "underscore", "isotope",
	"popper", "moment", "requirejs", "swfobject", "prototype", "polyfill",
}

var (
	// versionSeg matches a path segment that is a version ("1.12.4", "v3").
	versionSeg = regexp.MustCompile(`^v?\d+(\.\d+)*$`)
	// fileVersion matches "-1.12.4" / "-2.2" / "-3" suffixes on file bases;
	// the candidate is validated by semver.Parse before it is trusted.
	fileVersion = regexp.MustCompile(`-(\d[0-9a-z.]*)$`)
	// atVersion matches npm-style "name@1.2.3" path segments.
	atVersion = regexp.MustCompile(`^(.+)@(\d+(?:\.\d+)*)$`)
	// wpGenerator extracts the version from a WordPress generator meta.
	wpGenerator = regexp.MustCompile(`(?i)^\s*wordpress\s+(\d+(?:\.\d+)*)`)
)

// Page fingerprints an HTML document. pageHost is the host the page was
// fetched from; it decides internal vs external inclusion for absolute URLs.
func Page(html string, pageHost string) Detection {
	var det Detection
	els := htmlx.Elements(html)
	var inFlashObject bool
	var flash FlashHit
	var flashSeen bool

	for _, el := range els {
		tag := el.Tag
		switch tag.Name {
		case "script":
			det.ScriptCount++
			det.Resources.JavaScript = true
			if src, ok := tag.Attr("src"); ok && src != "" {
				det.scanScriptSrc(tag, src, pageHost)
			}
			if el.Body != "" {
				if strings.Contains(el.Body, "swfobject.embedSWF") {
					flash.ViaSWFObject = true
					flash.Visible = true // script embeds render into a slot
					flashSeen = true
					det.Resources.Flash = true
				}
			}
		case "link":
			rel, _ := tag.Attr("rel")
			href, _ := tag.Attr("href")
			rel = strings.ToLower(rel)
			switch {
			case strings.Contains(rel, "stylesheet"):
				det.Resources.CSS = true
				if strings.Contains(href, ".php") {
					det.Resources.ImportedHTML = true
				}
			case strings.Contains(rel, "icon"):
				det.Resources.Favicon = true
			case strings.Contains(rel, "alternate"):
				if typ, _ := tag.Attr("type"); strings.Contains(typ, "xml") ||
					strings.HasSuffix(href, ".xml") {
					det.Resources.XML = true
				}
			}
			if strings.Contains(strings.ToLower(href), "/wp-content/") {
				det.WordPressSeen = true
			}
		case "meta":
			if name, _ := tag.Attr("name"); strings.EqualFold(name, "generator") {
				content, _ := tag.Attr("content")
				if m := wpGenerator.FindStringSubmatch(content); m != nil {
					if v, err := semver.Parse(m[1]); err == nil {
						det.WordPress = v
						det.WordPressSeen = true
					}
				}
			}
		case "svg":
			det.Resources.SVG = true
		case "object":
			inFlashObject = isFlashObject(tag)
			if inFlashObject {
				det.Resources.Flash = true
				flashSeen = true
				if !offScreen(tag) {
					flash.Visible = true
				}
			}
		case "param":
			if name, _ := tag.Attr("name"); strings.EqualFold(name, "allowscriptaccess") {
				flash.ScriptAccessParam = true
				flashSeen = true
				if val, _ := tag.Attr("value"); strings.EqualFold(val, "always") {
					flash.Always = true
				}
			}
			if val, _ := tag.Attr("value"); strings.HasSuffix(strings.ToLower(val), ".swf") {
				det.Resources.Flash = true
				flashSeen = true
			}
		case "embed":
			if src, _ := tag.Attr("src"); strings.HasSuffix(strings.ToLower(src), ".swf") {
				det.Resources.Flash = true
				flashSeen = true
				// A standalone embed's visibility is its own; one inside
				// a Flash <object> follows the object's styling.
				if !inFlashObject && !offScreen(tag) {
					flash.Visible = true
				}
			}
			if v, ok := tag.Attr("allowscriptaccess"); ok {
				flash.ScriptAccessParam = true
				flashSeen = true
				if strings.EqualFold(v, "always") {
					flash.Always = true
				}
			}
		}
	}
	if flashSeen {
		det.Flash = &flash
	}
	return det
}

// offScreen reports whether a tag's inline style hides it or positions it
// outside the viewport — the invisible-Flash pattern of Section 8.
func offScreen(tag htmlx.Token) bool {
	style, ok := tag.Attr("style")
	if !ok {
		return false
	}
	style = strings.ToLower(style)
	return strings.Contains(style, "-9999px") ||
		strings.Contains(style, "display:none") ||
		strings.Contains(style, "display: none") ||
		strings.Contains(style, "visibility:hidden") ||
		strings.Contains(style, "visibility: hidden")
}

// isFlashObject reports whether an <object> tag is a Flash embed.
func isFlashObject(tag htmlx.Token) bool {
	if classid, _ := tag.Attr("classid"); strings.Contains(strings.ToUpper(classid), "D27CDB6E") {
		return true
	}
	if typ, _ := tag.Attr("type"); strings.Contains(typ, "shockwave-flash") {
		return true
	}
	if data, _ := tag.Attr("data"); strings.HasSuffix(strings.ToLower(data), ".swf") {
		return true
	}
	return false
}

// scanScriptSrc classifies one script URL.
func (det *Detection) scanScriptSrc(tag htmlx.Token, src, pageHost string) {
	lowSrc := strings.ToLower(src)
	if strings.Contains(lowSrc, ".axd") {
		det.Resources.AXD = true
	}
	if strings.Contains(lowSrc, ".php") {
		det.Resources.ImportedHTML = true
	}
	if strings.Contains(lowSrc, "/wp-includes/") || strings.Contains(lowSrc, "/wp-content/") {
		det.WordPressSeen = true
	}

	u, err := url.Parse(src)
	if err != nil {
		return
	}
	external := u.Host != "" && !strings.EqualFold(u.Host, pageHost)
	host := u.Host

	slug, ver, known := identifyLibrary(u)
	if slug == "" {
		return
	}
	hit := LibraryHit{
		Slug: slug, Known: known, Version: ver,
		External: external, Host: host, SourceURL: src,
	}
	if _, ok := tag.Attr("integrity"); ok {
		hit.SRI = true
	}
	if co, ok := tag.Attr("crossorigin"); ok {
		if co == "" {
			co = "anonymous" // bare attribute defaults to anonymous
		}
		hit.Crossorigin = strings.ToLower(co)
	}
	det.Libraries = append(det.Libraries, hit)
}

// identifyLibrary resolves (slug, version, known) for a script URL.
func identifyLibrary(u *url.URL) (string, semver.Version, bool) {
	segs := splitPath(u.Path)
	if len(segs) == 0 {
		return "", semver.Version{}, false
	}
	file := strings.ToLower(segs[len(segs)-1])
	if !strings.HasSuffix(file, ".js") {
		return "", semver.Version{}, false
	}
	base := normalizeBase(strings.TrimSuffix(file, ".js"))

	// npm-style name@version anywhere in the path.
	var atName string
	var atVer semver.Version
	for _, seg := range segs {
		if m := atVersion.FindStringSubmatch(seg); m != nil {
			atName = strings.ToLower(m[1])
			if v, err := semver.Parse(m[2]); err == nil {
				atVer = v
			}
		}
	}

	// Version from the file name ("jquery-1.12.4", "swfobject-2.2").
	var fileVer semver.Version
	if m := fileVersion.FindStringSubmatch(base); m != nil {
		if v, err := semver.Parse(m[1]); err == nil && len(v.Parts) > 0 {
			fileVer = v
			base = strings.TrimSuffix(base, m[0])
			base = normalizeBase(base)
		}
	}

	// Resolve the slug: exact file-base match, then npm package name, then
	// a known slug appearing as a path segment.
	slug, known := knownBases[base]
	if !known && atName != "" {
		if s, ok := knownBases[atName]; ok {
			slug, known = s, true
		}
	}
	pathSlug := findPathSlug(segs)
	if !known && pathSlug != "" {
		slug, known = pathSlug, true
	}
	if slug == "" {
		// Unknown library: report the normalized base as a generic slug.
		slug = base
	}
	// jquery-ui served as /ui/1.12.1/jquery-ui.min.js keeps its base name;
	// a bare "jquery" base under a jquery-ui path is the UI bundle.
	if known && pathSlug != "" && pathSlug != slug && isMoreSpecific(pathSlug, slug) {
		slug = pathSlug
	}

	ver := pickVersion(fileVer, atVer, segs, u)
	// A bare unknown name with no version signal (app.js, theme.js) is a
	// site script, not a library; requiring a version mirrors how
	// real-world detectors avoid that false-positive class.
	if !known && ver.IsZero() {
		return "", semver.Version{}, false
	}
	return slug, ver, known
}

// isMoreSpecific prefers plugin slugs over their host library when both
// match ("jquery-ui" over "jquery").
func isMoreSpecific(a, b string) bool {
	return strings.HasPrefix(a, b+"-") || strings.HasPrefix(a, b+".")
}

// pickVersion chooses the version by source priority: file suffix, @version,
// version-looking path segment, then query cache-buster.
func pickVersion(fileVer, atVer semver.Version, segs []string, u *url.URL) semver.Version {
	if !fileVer.IsZero() {
		return fileVer
	}
	if !atVer.IsZero() {
		return atVer
	}
	for _, seg := range segs {
		if versionSeg.MatchString(seg) {
			if v, err := semver.Parse(strings.TrimPrefix(seg, "v")); err == nil {
				return v
			}
		}
	}
	q := u.Query()
	for _, key := range []string{"ver", "v", "version"} {
		if val := q.Get(key); val != "" {
			if v, err := semver.Parse(val); err == nil {
				return v
			}
		}
	}
	return semver.Version{}
}

// findPathSlug returns a known slug appearing as its own path segment.
func findPathSlug(segs []string) string {
	for _, want := range knownPathSlugs {
		for _, seg := range segs {
			if strings.EqualFold(seg, want) {
				return want
			}
		}
	}
	return ""
}

// normalizeBase strips minification/bundle suffixes from a file base.
func normalizeBase(base string) string {
	for {
		switch {
		case strings.HasSuffix(base, ".min"):
			base = strings.TrimSuffix(base, ".min")
		case strings.HasSuffix(base, "-min"):
			base = strings.TrimSuffix(base, "-min")
		case strings.HasSuffix(base, ".pkgd"):
			base = strings.TrimSuffix(base, ".pkgd")
		case strings.HasSuffix(base, ".slim"):
			base = strings.TrimSuffix(base, ".slim")
		default:
			return base
		}
	}
}

func splitPath(p string) []string {
	var out []string
	for _, seg := range strings.Split(p, "/") {
		if seg != "" {
			out = append(out, seg)
		}
	}
	return out
}
