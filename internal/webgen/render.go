package webgen

import (
	"fmt"
	"strings"

	"clientres/internal/cdn"
	"clientres/internal/semver"
)

// PageHTML renders the landing page of site index i at week w and returns
// the HTML body and HTTP status. Dead domains return ("", 0) — the web
// server translates that into a connection-level failure. Transient
// failures return a short error body with their status; anti-bot sites
// return the paper's observed "Not allowed" 200-page.
func (e *Ecosystem) PageHTML(i, week int) (string, int) {
	s := e.Sites[i]
	t := s.truth(week)
	switch {
	case t.Status == 0:
		return "", 0
	case t.Status != 200:
		return fmt.Sprintf("<html><body><h1>%d</h1></body></html>", t.Status), t.Status
	case t.EmptyPage:
		return "<html><body>Not allowed to access.</body></html>", 200
	}
	return renderPage(s, t), 200
}

// urlStyle is the site's (stable) choice of internal asset URL shape.
type urlStyle int

const (
	styleFileVersion  urlStyle = iota // /assets/js/jquery-1.12.4.min.js
	stylePathVersion                  // /static/jquery/1.12.4/jquery.min.js
	styleQueryVersion                 // /js/jquery.min.js?v=1.12.4
)

// siteURLStyle resolves the site's internal asset URL shape — the first
// draw of the site's stable rendering stream, so every week renders the same
// structural choice and version changes are the only diffs. renderPage and
// AssetJS share it so the served body for a src always matches the tag that
// referenced it.
func siteURLStyle(s *Site) urlStyle {
	return urlStyle(newStream(mix(s.seed, 0x12e4de12)).Intn(3))
}

func renderPage(s *Site, t PageTruth) string {
	style := siteURLStyle(s)

	b := new(strings.Builder)
	b.Grow(4096)
	b.WriteString("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n")
	b.WriteString("<meta charset=\"utf-8\">\n")
	fmt.Fprintf(b, "<title>%s — home</title>\n", s.Domain.Name)

	if !t.WordPress.IsZero() {
		fmt.Fprintf(b, "<meta name=\"generator\" content=\"WordPress %s\">\n", t.WordPress)
	}
	if t.UsesFavicon {
		b.WriteString("<link rel=\"shortcut icon\" href=\"/favicon.ico\">\n")
	}
	if t.UsesCSS {
		b.WriteString("<link rel=\"stylesheet\" href=\"/css/site.css\">\n")
		if !t.WordPress.IsZero() {
			b.WriteString("<link rel=\"stylesheet\" href=\"/wp-content/themes/base/style.css\">\n")
		}
	}
	if t.UsesXML {
		fmt.Fprintf(b, "<link rel=\"alternate\" type=\"application/rss+xml\" href=\"https://%s/feed.xml\">\n", s.Domain.Name)
	}
	if t.UsesImportedHTML {
		b.WriteString("<script src=\"/render/loader.php\"></script>\n")
	}

	// Library script tags — or, on bundled pages, the single artifact
	// that replaced them.
	if t.Bundled {
		name, _ := bundleInfo(s, t)
		fmt.Fprintf(b, "<script src=\"/assets/%s\"></script>\n", name)
	} else {
		for _, lib := range t.Libs {
			writeLibScript(b, s, lib, t, style)
		}
	}
	for _, tl := range t.Tail {
		fmt.Fprintf(b, "<script src=\"/vendor/%s/%s/%s.min.js\"></script>\n", tl.Name, tl.Version, tl.Name)
	}
	if s.CustomJS {
		b.WriteString("<script src=\"/js/app.js\"></script>\n")
		b.WriteString("<script>window.__site={ready:function(){return 1<2;}};</script>\n")
	}
	if t.UsesAXD {
		b.WriteString("<script src=\"/WebResource.axd?d=page\"></script>\n")
	}
	b.WriteString("</head>\n<body>\n")

	fmt.Fprintf(b, "<h1>Welcome to %s</h1>\n", s.Domain.Name)
	b.WriteString("<p>Curabitur sit amet sem a ligula egestas facilisis. Vivamus euismod " +
		"condimentum nibh, at dictum justo volutpat vitae. Integer posuere erat a ante " +
		"venenatis dapibus posuere velit aliquet.</p>\n")
	if t.UsesSVG {
		b.WriteString("<svg width=\"32\" height=\"32\"><circle cx=\"16\" cy=\"16\" r=\"14\"/></svg>\n")
	}
	if t.Flash != nil {
		writeFlash(b, t.Flash)
	}
	b.WriteString("<footer><p>Sed ut perspiciatis unde omnis iste natus error sit voluptatem " +
		"accusantium doloremque laudantium.</p></footer>\n")
	b.WriteString("</body>\n</html>\n")
	return b.String()
}

// libSrc computes the src attribute of one library observation. wp is the
// page's WordPress version (zero off-platform). Factored out of
// writeLibScript so AssetJS can resolve the same src back to a body.
func libSrc(lib LibObservation, wp semver.Version, style urlStyle) string {
	switch {
	case lib.External && cdn.IsVersionControl(lib.Host):
		// Version-control hosting carries no version information in the
		// URL — faithfully so; such inclusions are version-blind to the
		// fingerprinter, as they were to Wappalyzer.
		return cdn.VersionControlURL(strings.TrimSuffix(lib.Host, ".github.io"), lib.Slug)
	case lib.External:
		return cdn.URL(lib.Host, lib.Slug, lib.Version.String())
	case !wp.IsZero() && (lib.Slug == "jquery" || lib.Slug == "jquery-migrate"):
		// WordPress core enqueues bundled libraries under wp-includes
		// with a ?ver= cache-buster.
		return fmt.Sprintf("/wp-includes/js/jquery/%s.min.js?ver=%s", cdn.FileBase(lib.Slug), lib.Version)
	default:
		base := cdn.FileBase(lib.Slug)
		switch style {
		case styleFileVersion:
			return fmt.Sprintf("/assets/js/%s-%s.min.js", base, lib.Version)
		case stylePathVersion:
			return fmt.Sprintf("/static/%s/%s/%s.min.js", lib.Slug, lib.Version, base)
		default:
			return fmt.Sprintf("/js/%s.min.js?v=%s", base, lib.Version)
		}
	}
}

// writeLibScript emits the <script> tag for one library observation.
func writeLibScript(b *strings.Builder, s *Site, lib LibObservation, t PageTruth, style urlStyle) {
	src := libSrc(lib, t.WordPress, style)
	b.WriteString("<script src=\"")
	b.WriteString(src)
	b.WriteString("\"")
	if lib.SRI {
		fmt.Fprintf(b, " integrity=\"sha384-%s\"", fakeHash(s.seed, lib.Slug))
		if lib.Crossorigin != "" {
			fmt.Fprintf(b, " crossorigin=\"%s\"", lib.Crossorigin)
		}
	}
	b.WriteString("></script>\n")
}

// writeFlash emits the <object>/<embed> Flash markup including the
// AllowScriptAccess parameter when configured. Invisible embeds — leftovers
// end-users never see — are positioned off-page, exactly the pattern the
// paper found on 7 of 13 top-10K holdouts.
func writeFlash(b *strings.Builder, f *FlashObservation) {
	styleAttr := ""
	if !f.Visible {
		styleAttr = " style=\"position:absolute;left:-9999px;top:-9999px\""
	}
	b.WriteString("<object classid=\"clsid:D27CDB6E-AE6D-11cf-96B8-444553540000\" width=\"468\" height=\"60\"" + styleAttr + ">\n")
	b.WriteString("  <param name=\"movie\" value=\"/media/banner.swf\">\n")
	if f.ScriptAccessParam {
		val := "sameDomain"
		if f.Always {
			val = "always"
		}
		fmt.Fprintf(b, "  <param name=\"allowScriptAccess\" value=\"%s\">\n", val)
	}
	b.WriteString("  <embed src=\"/media/banner.swf\" type=\"application/x-shockwave-flash\"")
	if f.ScriptAccessParam {
		val := "sameDomain"
		if f.Always {
			val = "always"
		}
		fmt.Fprintf(b, " allowscriptaccess=\"%s\"", val)
	}
	b.WriteString(">\n</object>\n")
	if f.ViaSWFObject {
		b.WriteString("<script>swfobject.embedSWF(\"/media/banner.swf\", \"flash-slot\", \"468\", \"60\", \"9.0.0\");</script>\n")
	}
}

// fakeHash derives a stable base64-looking token for integrity attributes.
func fakeHash(seed int64, salt string) string {
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	h := uint64(mix(seed, int64(len(salt))))
	for _, c := range salt {
		h = h*1099511628211 + uint64(c)
	}
	var out [43]byte
	for i := range out {
		out[i] = alphabet[h%64]
		h = h*6364136223846793005 + 1442695040888963407
	}
	return string(out[:])
}
