package webgen

// Seed-driven bundler mode. Real deployments increasingly ship one
// webpack/rollup artifact that concatenates every dependency, renames the
// identifiers, and (sometimes) strips the license banners — exactly the
// inclusion shape that is invisible to URL-based version inference. This
// file models that: a bundling site replaces its individual top-15
// library <script src> tags with a single bundle.<contenthash>.js whose
// body concatenates a deterministic synthetic source artifact per
// (library, release). The synthetic sources carry the same class of
// version discriminators real libraries do — a version property
// assignment that survives minification, and a /*! ... */ banner that
// survives only when the bundler keeps comments — so the content-signature
// scanner in internal/fingerprint has exactly the evidence a real one has,
// and nothing more.
//
// Determinism: every byte of a bundle derives from (library slug, release
// version, bundle profile, site seed). The profile itself is drawn from a
// dedicated derived RNG stream, never from the site's main profile stream,
// so enabling bundling does not perturb a single draw of the existing
// generator — plain-mode ecosystems stay byte-identical (pinned by the
// golden-hash regression test).

import (
	"fmt"
	"strings"

	"clientres/internal/semver"
)

// Bundling parameterizes the bundler mode of an ecosystem.
type Bundling struct {
	// Fraction of eligible sites (non-static, non-WordPress, with at
	// least one top-15 library) that ship a bundle instead of individual
	// script tags. 0 disables bundling entirely.
	Fraction float64
	// MinifyP is the probability a bundling site minifies identifiers
	// and collapses whitespace.
	MinifyP float64
	// BannerP is the probability the bundler keeps the per-library
	// /*! ... */ license banners (terser's "comments: /^!/" default).
	BannerP float64
	// SourceMapP is the probability the bundle carries a trailing
	// //# sourceMappingURL= comment.
	SourceMapP float64
}

// DefaultBundling returns the bundler knobs used by the commands when only
// a fraction is given: a majority of real bundles are minified, about half
// keep license banners, and a third ship a source-map pointer.
func DefaultBundling(fraction float64) Bundling {
	return Bundling{Fraction: fraction, MinifyP: 0.6, BannerP: 0.5, SourceMapP: 0.35}
}

// BundleProfile is one site's drawn bundler behaviour.
type BundleProfile struct {
	// Enabled marks the site as shipping a bundle.
	Enabled bool
	// Minify renames identifiers and collapses whitespace.
	Minify bool
	// Banner keeps the per-library license banners.
	Banner bool
	// SourceMap appends a //# sourceMappingURL= trailer.
	SourceMap bool
}

// genBundle draws the site's bundle profile from a dedicated derived RNG so
// the draw sequence of every other site property is untouched.
func (s *Site) genBundle(cfg Config) {
	b := cfg.Bundling
	if b.Fraction <= 0 || s.Static || s.WordPress || len(s.Libs) == 0 {
		return
	}
	rng := newStream(mix(s.seed, 0xb0d1e5))
	if rng.Float64() >= b.Fraction {
		return
	}
	s.Bundle.Enabled = true
	s.Bundle.Minify = rng.Float64() < b.MinifyP
	s.Bundle.Banner = rng.Float64() < b.BannerP
	s.Bundle.SourceMap = rng.Float64() < b.SourceMapP
}

// bundleInfo assembles the week's bundle for a site: name (with content
// hash) and full body. Called only when t.Bundled.
func bundleInfo(s *Site, t PageTruth) (name, body string) {
	b := new(strings.Builder)
	b.Grow(8192)
	for _, lib := range t.Libs {
		if s.Bundle.Banner {
			b.WriteString(libraryBanner(lib.Slug, lib.Version))
			b.WriteByte('\n')
		}
		b.WriteString(librarySource(lib.Slug, lib.Version, s.Bundle.Minify))
		b.WriteByte('\n')
	}
	// Site-specific app module: real bundles mix first-party code in with
	// the vendored dependencies, and it is what makes two sites with the
	// same dependency set ship different artifacts.
	fmt.Fprintf(b, "var __app={site:%q,build:\"%x\"};__app.boot=function(){return __app.site.length};\n",
		s.Domain.Name, uint64(mix(s.seed, 0xa99b00)))
	modules := b.String()

	name = fmt.Sprintf("bundle.%016x.js", contentHash(modules))
	out := new(strings.Builder)
	out.Grow(len(modules) + 128)
	out.WriteString("!function(){\"use strict\";\n")
	out.WriteString(modules)
	out.WriteString("}();\n")
	if s.Bundle.SourceMap {
		fmt.Fprintf(out, "//# sourceMappingURL=%s.map\n", name)
	}
	return name, out.String()
}

// contentHash is FNV-1a 64 — the bundle's stand-in for webpack's
// [contenthash].
func contentHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// displayNames are the banner names of the top-15 libraries, as their real
// release banners spell them.
var displayNames = map[string]string{
	"jquery":         "jQuery",
	"jquery-ui":      "jQuery UI",
	"jquery-migrate": "jQuery Migrate",
	"jquery-cookie":  "jQuery Cookie Plugin",
	"js-cookie":      "JavaScript Cookie",
	"bootstrap":      "Bootstrap",
	"modernizr":      "Modernizr",
	"underscore":     "Underscore.js",
	"isotope":        "Isotope",
	"popper":         "Popper.js",
	"moment":         "Moment.js",
	"requirejs":      "RequireJS",
	"swfobject":      "SWFObject",
	"prototype":      "Prototype",
	"polyfill":       "Polyfill",
}

// libraryBanner renders the /*! ... */ license banner of one release.
func libraryBanner(slug string, ver semver.Version) string {
	name := displayNames[slug]
	if name == "" {
		name = slug
	}
	return fmt.Sprintf("/*! %s v%s | (c) the %s contributors | released under the MIT license */",
		name, ver, slug)
}

// codeIdioms is the version-bearing statement each library's source carries,
// modeled on the real artifacts: jQuery's support object, Bootstrap's
// plugin VERSION constant, Underscore's _.VERSION export, and so on. These
// are string/property constructs, so minification preserves them — which is
// precisely why content-signature fingerprinting works on minified bundles.
// swfobject and jquery-cookie deliberately have no code idiom: their real
// sources carry the version only in the banner comment, making them the
// measured casualty of banner-stripping bundlers.
var codeIdioms = map[string]string{
	"jquery":         `var support={jquery:"%s",expando:"jq"+Math.random()};`,
	"jquery-ui":      `var ui=window.ui||{};ui.version="%s";`,
	"jquery-migrate": `jQuery.migrateVersion="%s";`,
	"bootstrap":      `var Util={TRANSITION_END:"bsTransitionEnd",VERSION:"%s"};`,
	"modernizr":      `var Modernizr={_version:"%s",_config:{classPrefix:""}};`,
	"underscore":     `_.VERSION="%s";`,
	"isotope":        `var Isotope=window.Isotope||{};Isotope.version="%s";`,
	"popper":         `var Popper=function(r,e){this.reference=r;this.popper=e};Popper.version="%s";`,
	"moment":         `var hooks=function(){return null};hooks.version="%s";`,
	"js-cookie":      `var Cookies=function(c){return c};Cookies.version="%s";`,
	"requirejs":      `var req=function(d){return d};req.version="%s";`,
	"prototype":      `var Prototype={Version:"%s",emptyFunction:function(){}};`,
	"polyfill":       `var polyfill={};polyfill.version="%s";`,
}

// librarySource renders the deterministic synthetic JavaScript artifact of
// one (library, release): the version-bearing idiom plus seeded filler
// functions. minify selects short identifiers and collapsed whitespace; it
// never touches the idiom, just as real minifiers preserve string literals
// and property names.
func librarySource(slug string, ver semver.Version, minify bool) string {
	v := ver.String()
	idiom := ""
	if f, ok := codeIdioms[slug]; ok {
		idiom = fmt.Sprintf(f, v)
	}
	rng := newStream(mix(contentSeed(slug), contentSeed(v)))
	nf := 3 + rng.Intn(5)
	type filler struct{ mul, mod, init int }
	fills := make([]filler, nf)
	for i := range fills {
		fills[i] = filler{mul: 3 + rng.Intn(97), mod: 5 + rng.Intn(251), init: rng.Intn(1000)}
	}

	b := new(strings.Builder)
	if minify {
		b.WriteString("!function(){")
		b.WriteString(idiom)
		for i, f := range fills {
			fmt.Fprintf(b, "var %s=%d;function %s(t,n){return(t*%d+n+%s)%%%d}",
				minIdent(2*i), f.init, minIdent(2*i+1), f.mul, minIdent(2*i), f.mod)
		}
		b.WriteString("}();")
		return b.String()
	}
	b.WriteString("(function () {\n  \"use strict\";\n")
	if idiom != "" {
		fmt.Fprintf(b, "  %s\n", idiom)
	}
	for i, f := range fills {
		fmt.Fprintf(b, "  var %s = %d;\n", longIdent(slug, 2*i), f.init)
		fmt.Fprintf(b, "  function %s(value, shift) {\n    return (value * %d + shift + %s) %% %d;\n  }\n",
			longIdent(slug, 2*i+1), f.mul, longIdent(slug, 2*i), f.mod)
	}
	b.WriteString("})();")
	return b.String()
}

// minIdent yields the i-th short identifier of a minified scope (a, b, ...,
// z, a0, a1, ...).
func minIdent(i int) string {
	if i < 26 {
		return string(rune('a' + i))
	}
	return "a" + itoa(i-26)
}

// longIdent yields a readable identifier for unminified sources.
func longIdent(slug string, i int) string {
	return "_" + strings.ReplaceAll(slug, "-", "_") + "Helper" + itoa(i)
}

// contentSeed folds a string into a seed value for the filler RNG.
func contentSeed(s string) int64 { return int64(contentHash(s)) }

// LibraryJS renders the standalone minified artifact a site serves for one
// internally-hosted library — the body behind /assets/js/jquery-1.12.4.min.js
// and friends. Shipped .min.js files keep their /*! banner (minifiers
// preserve bang-comments by default), so both the banner and the code idiom
// are present.
func LibraryJS(slug string, ver semver.Version) string {
	return libraryBanner(slug, ver) + "\n" + librarySource(slug, ver, true)
}

// tailLibJS renders the artifact of a long-tail library. Tail libraries are
// outside the signature database, so their bodies carry a banner the
// scanner has no anchor for — they exercise the no-false-positive side.
func tailLibJS(tl TailLib) string {
	return fmt.Sprintf("/*! %s v%s */\n!function(){var t=%q;window[t.replace(/-/g,\"_\")]={version:%q}}();",
		tl.Name, tl.Version, tl.Name, tl.Version)
}

// appJS renders a site's first-party /js/app.js.
func appJS(s *Site) string {
	return fmt.Sprintf("window.__site={name:%q,ready:function(){return 1<2}};", s.Domain.Name)
}

// AssetJS resolves a same-site script path of site i at a snapshot week to
// its JavaScript body — the web server's source for every src the rendered
// page references. The path must be query-stripped-comparable ("?v=..."
// cache busters are ignored). ok is false for unknown paths, inaccessible
// weeks, and pages that do not reference the asset.
func (e *Ecosystem) AssetJS(i, week int, path string) (string, bool) {
	if q := strings.IndexByte(path, '?'); q >= 0 {
		path = path[:q]
	}
	s := e.Sites[i]
	t := s.truth(week)
	if !t.Accessible {
		return "", false
	}
	if t.Bundled {
		// Only a bundle path is worth assembling the bundle for: its name
		// carries the hash of the whole body.
		if strings.HasPrefix(path, "/assets/bundle.") {
			if name, body := bundleInfo(s, t); path == "/assets/"+name {
				return body, true
			}
		}
	} else {
		style := siteURLStyle(s)
		for _, lib := range t.Libs {
			if lib.External {
				continue
			}
			src := libSrc(lib, t.WordPress, style)
			if q := strings.IndexByte(src, '?'); q >= 0 {
				src = src[:q]
			}
			if src == path {
				return LibraryJS(lib.Slug, lib.Version), true
			}
		}
	}
	for _, tl := range t.Tail {
		if path == "/vendor/"+tl.Name+"/"+tl.Version+"/"+tl.Name+".min.js" {
			return tailLibJS(tl), true
		}
	}
	if s.CustomJS && path == "/js/app.js" {
		return appJS(s), true
	}
	// Non-library helper scripts some pages reference: the imported-HTML
	// loader and the ASP.NET WebResource handler. Their bodies carry no
	// library evidence — they exercise the scanner's nothing-to-find path.
	if t.UsesImportedHTML && path == "/render/loader.php" {
		return "document.write('<link rel=\"import\" href=\"/partials/nav.html\">');", true
	}
	if t.UsesAXD && path == "/WebResource.axd" {
		return "/* WebResource composite */;", true
	}
	return "", false
}
