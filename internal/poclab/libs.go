package poclab

import (
	"regexp"
	"strings"
)

// Bootstrap emulates the Bootstrap component code paths of Table 2. Each
// component forwards attacker-controllable attribute/option values into
// jQuery-style DOM APIs; whether that is dangerous depends on when the
// component (or option) was introduced and when its sanitization landed —
// the introduction/fix facts below are the version history the paper's
// experiments recovered.
type Bootstrap struct{ env *Env }

// Bootstrap returns the Bootstrap emulator.
func (e *Env) Bootstrap() *Bootstrap { return &Bootstrap{env: e} }

// TooltipTemplate models the tooltip/popover template option
// (CVE-2019-8331). The HTML sanitizer landed in 3.4.1 on the 3.x branch and
// 4.3.1 on the 4.x branch; earlier versions insert the template unfiltered.
func (b *Bootstrap) TooltipTemplate(template string) {
	sanitized := b.env.in("3.4.1", "4.0.0") || b.env.in("4.3.1", "")
	if sanitized {
		b.env.insertHTML(sanitizeHTML(template))
		return
	}
	b.env.insertHTML(template)
}

// TooltipContainer models the data-container option (CVE-2018-14042):
// introduced with 2.3.0, escaped from 4.1.2.
func (b *Bootstrap) TooltipContainer(value string) {
	if b.env.in("2.3.0", "4.1.2") {
		b.env.insertHTML(value)
	}
}

// CollapseParent models the collapse data-parent option (CVE-2018-14040):
// introduced with 2.3.0, escaped from 4.1.2.
func (b *Bootstrap) CollapseParent(value string) {
	if b.env.in("2.3.0", "4.1.2") {
		b.env.insertHTML(value)
	}
}

// ScrollSpyTarget models the scrollspy data-target option
// (CVE-2018-14041), escaped from 4.1.2.
func (b *Bootstrap) ScrollSpyTarget(value string) {
	if b.env.in("", "4.1.2") {
		b.env.insertHTML(value)
	}
}

// AffixTarget models the affix data-target option (CVE-2018-20676): the
// vulnerable handling shipped with 3.2.0 and was escaped in 3.4.0.
func (b *Bootstrap) AffixTarget(value string) {
	if b.env.in("3.2.0", "3.4.0") {
		b.env.insertHTML(value)
	}
}

// TooltipViewport models the tooltip viewport option (CVE-2018-20677):
// introduced with 3.2.0, escaped in 3.4.0.
func (b *Bootstrap) TooltipViewport(value string) {
	if b.env.in("3.2.0", "3.4.0") {
		b.env.insertHTML(value)
	}
}

// DataTarget models the generic data-target attribute handling
// (CVE-2016-10735): the unescaped selector path shipped with 2.1.0 and was
// fixed in 3.4.0.
func (b *Bootstrap) DataTarget(value string) {
	if b.env.in("2.1.0", "3.4.0") {
		b.env.insertHTML(value)
	}
}

// JQueryUI emulates the jQuery-UI widget options of Table 2.
type JQueryUI struct{ env *Env }

// JQueryUI returns the jQuery-UI emulator.
func (e *Env) JQueryUI() *JQueryUI { return &JQueryUI{env: e} }

// DialogTitle models the dialog title option (CVE-2010-5312): inserted as
// HTML until the 1.10.0 rewrite escaped it.
func (u *JQueryUI) DialogTitle(title string) {
	if u.env.in("", "1.10.0") {
		u.env.insertHTML(title)
		return
	}
	u.env.insertHTML(escapeText(title))
}

// TooltipContent models the tooltip content handling (CVE-2012-6662),
// also fixed by the 1.10.0 rewrite.
func (u *JQueryUI) TooltipContent(content string) {
	if u.env.in("", "1.10.0") {
		u.env.insertHTML(content)
	}
}

// DialogCloseText models the dialog closeText option (CVE-2016-7103). The
// 1.10.0 rewrite that fixed the title options routed closeText through
// .html() — introducing this bug — and the paper's experiments found it
// alive through 1.12.x, gone only in 1.13.0.
func (u *JQueryUI) DialogCloseText(text string) {
	if u.env.in("1.10.0", "1.13.0") {
		u.env.insertHTML(text)
		return
	}
	u.env.insertHTML(escapeText(text))
}

// DatepickerAltField models the datepicker altField option
// (CVE-2021-41182), unescaped until 1.13.0.
func (u *JQueryUI) DatepickerAltField(value string) {
	if u.env.in("", "1.13.0") {
		u.env.insertHTML(value)
	}
}

// ButtonText models widget text options (CVE-2021-41183), unescaped until
// 1.13.0.
func (u *JQueryUI) ButtonText(value string) {
	if u.env.in("", "1.13.0") {
		u.env.insertHTML(value)
	}
}

// PositionOf models the .position util's "of" option (CVE-2021-41184),
// treated as a selector-or-HTML until 1.13.0.
func (u *JQueryUI) PositionOf(value string) {
	if u.env.in("", "1.13.0") {
		u.env.insertHTML(value)
	}
}

// Underscore emulates _.template (CVE-2021-23358).
type Underscore struct{ env *Env }

// Underscore returns the Underscore emulator.
func (e *Env) Underscore() *Underscore { return &Underscore{env: e} }

var identifierRE = regexp.MustCompile(`^[a-zA-Z_$][0-9a-zA-Z_$]*$`)

// Template models _.template(tpl, {variable: v}): the generated function
// source splices the variable name verbatim. The option appeared in 1.3.2;
// 1.12.1 added the identifier check. The splice genuinely happens here and
// the PoC inspects whether its payload escaped into the source.
func (u *Underscore) Template(tpl, variable string) string {
	source := "var __t,__p='';"
	switch {
	case variable == "" || !u.env.in("1.3.2", ""):
		// Option absent (or predates its introduction): sandboxed with().
		source += "with(obj||{}){ __p+='" + escapeJS(tpl) + "'; }"
	case u.env.in("1.3.2", "1.12.1"):
		// Raw splice: attacker-controlled code lands in the source.
		source += "var " + variable + ";__p+='" + escapeJS(tpl) + "';"
		if !identifierRE.MatchString(variable) {
			u.env.recordInjection(variable)
		}
	default:
		// Fixed: non-identifiers are rejected before code generation.
		if !identifierRE.MatchString(variable) {
			return ""
		}
		source += "var " + variable + ";__p+='" + escapeJS(tpl) + "';"
	}
	return source
}

// Moment emulates the Moment.js parsing paths with ReDoS histories.
type Moment struct{ env *Env }

// Moment returns the Moment.js emulator.
func (e *Env) Moment() *Moment { return &Moment{env: e} }

// ParseDuration models the duration/locale parsing of CVE-2016-4055. The
// paper's experiments found the catastrophic pattern present in
// [2.8.1, 2.15.2); outside that span a linear pattern is used. The blow-up
// itself is real: the naive engine's step counter explodes on the nested
// quantifier.
func (mo *Moment) ParseDuration(input string) bool {
	pattern := `(\d+ )*ms`
	if mo.env.in("2.8.1", "2.15.2") {
		pattern = `((\d+ ?)+)*ms` // nested quantifier: catastrophic
	}
	ok, steps := matchSteps(pattern, input, redosBudget)
	mo.env.steps = steps
	return ok
}

// ParseRFC2822 models the RFC-2822 date parsing of CVE-2017-18214, fixed
// in 2.19.3.
func (mo *Moment) ParseRFC2822(input string) bool {
	pattern := `([A-Za-z]+, )?\d+ [A-Za-z]+ \d+`
	if mo.env.in("", "2.19.3") {
		pattern = `(([A-Za-z]+|,| )+)*\d\d\d\d` // overlapping alternation
	}
	ok, steps := matchSteps(pattern, input, redosBudget)
	mo.env.steps = steps
	return ok
}

// Prototype emulates the Prototype.js paths of Table 2.
type Prototype struct{ env *Env }

// Prototype returns the Prototype emulator.
func (e *Env) Prototype() *Prototype { return &Prototype{env: e} }

// StripTags models String#stripTags (CVE-2020-27511). The vulnerable
// pattern has shipped unchanged in every release and no fixed version
// exists (the 2021 fix PR is unmerged), so the blow-up reproduces on all
// versions.
func (p *Prototype) StripTags(input string) string {
	// The real pattern's vulnerable core: a repeated attribute group whose
	// inner alternation ("[^"]*" vs the catch-all [^>]) overlaps with the
	// group's own separator — the ambiguity that makes backtracking
	// explode on an unterminated tag.
	pattern := `<\w+(( )+("[^"]*"|[^>])+)*>`
	ok, steps := matchSteps(pattern, input, redosBudget)
	p.env.steps = steps
	if ok {
		return ""
	}
	return input
}

// AjaxRequestAuth models the pre-1.6.0.1 Ajax.Request authorization
// handling (CVE-2020-7993): the affected builds forwarded requests without
// the authorization guard.
func (p *Prototype) AjaxRequestAuth() {
	if p.env.in("", "1.6.0.1") {
		p.env.leaked = true
	}
}

// sanitizeHTML is the allowlist sanitizer Bootstrap 3.4.1/4.3.1 introduced:
// script elements and event-handler attributes are removed.
var eventAttr = regexp.MustCompile(`(?i)\son\w+\s*=\s*("[^"]*"|'[^']*'|[^\s>]+)`)

func sanitizeHTML(html string) string {
	html = stripScripts(html)
	return eventAttr.ReplaceAllString(html, "")
}

// escapeText models .text()-style insertion: markup becomes inert text.
func escapeText(s string) string {
	s = strings.ReplaceAll(s, "<", "&lt;")
	return strings.ReplaceAll(s, ">", "&gt;")
}

func escapeJS(s string) string {
	return strings.ReplaceAll(s, "'", "\\'")
}
