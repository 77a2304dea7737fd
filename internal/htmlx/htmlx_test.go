package htmlx

import (
	"strings"
	"testing"
	"testing/quick"
)

func collect(src string) []Token {
	var out []Token
	z := New(src)
	for {
		tok, ok := z.Next()
		if !ok {
			return out
		}
		out = append(out, tok)
	}
}

func TestSimpleDocument(t *testing.T) {
	src := `<!DOCTYPE html><html><head><title>Hi</title></head><body><p class="x">text</p></body></html>`
	toks := collect(src)
	var kinds []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind.String()+":"+tok.Name)
	}
	want := []string{
		"doctype:", "start:html", "start:head", "start:title", "text:",
		"end:title", "end:head", "start:body", "start:p", "text:",
		"end:p", "end:body", "end:html",
	}
	if len(kinds) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(kinds), kinds, len(want))
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Errorf("token %d = %s, want %s", i, kinds[i], want[i])
		}
	}
}

func TestAttributes(t *testing.T) {
	src := `<script src="https://code.jquery.com/jquery-1.12.4.min.js" integrity="sha256-abc" crossorigin='anonymous' async data-x=plain></script>`
	tags := Tags(src)
	if len(tags) != 1 {
		t.Fatalf("got %d tags", len(tags))
	}
	tag := tags[0]
	checks := map[string]string{
		"src":         "https://code.jquery.com/jquery-1.12.4.min.js",
		"integrity":   "sha256-abc",
		"crossorigin": "anonymous",
		"async":       "",
		"data-x":      "plain",
	}
	for k, want := range checks {
		got, ok := tag.Attr(k)
		if !ok || got != want {
			t.Errorf("attr %q = %q (present %v), want %q", k, got, ok, want)
		}
	}
	if _, ok := tag.Attr("nope"); ok {
		t.Error("Attr(nope) present")
	}
}

func TestCaseInsensitivity(t *testing.T) {
	src := `<SCRIPT SRC="/a.js"></SCRIPT><LINK REL="stylesheet" HREF="/x.css">`
	tags := Tags(src)
	if len(tags) != 2 || tags[0].Name != "script" || tags[1].Name != "link" {
		t.Fatalf("tags = %+v", tags)
	}
	if v, _ := tags[0].Attr("src"); v != "/a.js" {
		t.Errorf("src = %q", v)
	}
}

func TestScriptBodyIsRawText(t *testing.T) {
	src := `<script>if (a < b) { x = "<p>not a tag</p>"; }</script><p>after</p>`
	els := Elements(src)
	if len(els) != 2 {
		t.Fatalf("got %d elements: %+v", len(els), els)
	}
	if els[0].Tag.Name != "script" || !strings.Contains(els[0].Body, `a < b`) {
		t.Errorf("script body = %q", els[0].Body)
	}
	if !strings.Contains(els[0].Body, "<p>not a tag</p>") {
		t.Errorf("raw text should keep inner markup, got %q", els[0].Body)
	}
	if els[1].Tag.Name != "p" {
		t.Errorf("second element = %q", els[1].Tag.Name)
	}
}

func TestEmptyScript(t *testing.T) {
	src := `<script src="/a.js"></script><script src="/b.js"></script>`
	els := Elements(src)
	if len(els) != 2 {
		t.Fatalf("got %d elements", len(els))
	}
	for i, el := range els {
		if el.Body != "" {
			t.Errorf("element %d body = %q, want empty", i, el.Body)
		}
	}
}

// tokenData returns the data of every token of kind k in src.
func tokenData(src string, k TokenKind) []string {
	var out []string
	z := New(src)
	for {
		tok, ok := z.Next()
		if !ok {
			return out
		}
		if tok.Kind == k {
			out = append(out, tok.Data)
		}
	}
}

func TestComments(t *testing.T) {
	src := `<!-- jQuery v1.12.4 --><p>x</p><!--[if IE]>old<![endif]-->`
	got := tokenData(src, CommentToken)
	if len(got) != 2 || got[0] != " jQuery v1.12.4 " || !strings.Contains(got[1], "old") {
		t.Errorf("comments = %q", got)
	}
}

func TestSelfClosing(t *testing.T) {
	src := `<br/><img src="x.png" /><embed src="movie.swf" allowscriptaccess="always"/>`
	tags := Tags(src)
	if len(tags) != 3 {
		t.Fatalf("got %d tags", len(tags))
	}
	for _, tag := range tags {
		if tag.Kind != SelfClosingTagToken {
			t.Errorf("%s kind = %v, want self-closing", tag.Name, tag.Kind)
		}
	}
	if v, _ := tags[2].Attr("allowscriptaccess"); v != "always" {
		t.Errorf("allowscriptaccess = %q", v)
	}
}

func TestMalformedInputsDoNotPanic(t *testing.T) {
	inputs := []string{
		"", "<", "<<", "<>", "< p>", "<p", "<p class=", `<p class="unterminated`,
		"<script>never closed", "<!-- never closed", "<!doctype", "a<b>c",
		"</", "</>", "<p/", "<p //>", "text only", "<p a b c>", "\x00<p>\xff",
	}
	for _, in := range inputs {
		toks := collect(in) // must terminate without panic
		_ = toks
	}
}

// Fuzz-found regression (corpus a05ddc0de04017ed): invalid UTF-8 in a
// raw-text body panicked the tokenizer, because strings.ToLower re-encodes
// each bad byte as a 3-byte U+FFFD rune, so the end-tag index found in the
// lowered string landed past the end of the real source.
func TestRawTextInvalidUTF8DoesNotPanic(t *testing.T) {
	src := "<stYle>\xff\xff\xff\xde</stYle"
	toks := collect(src)
	var body string
	for _, tok := range toks {
		if tok.Kind == TextToken {
			body += tok.Data
		}
	}
	if body != "\xff\xff\xff\xde" {
		t.Errorf("raw-text body = %q", body)
	}
}

func TestIndexFoldASCII(t *testing.T) {
	cases := []struct {
		s, needle string
		want      int
	}{
		{"abc</SCRIPT>", "</script", 3},
		{"abc</script>", "</script", 3},
		{"\xff\xff</StYlE", "</style", 2},
		{"no end tag here", "</script", -1},
		{"", "</script", -1},
		{"x", "", 0},
		{"</scrip", "</script", -1},
	}
	for _, tc := range cases {
		if got := indexFoldASCII(tc.s, tc.needle); got != tc.want {
			t.Errorf("indexFoldASCII(%q, %q) = %d, want %d", tc.s, tc.needle, got, tc.want)
		}
	}
}

func TestLiteralLessThanInText(t *testing.T) {
	src := `<p>1 < 2 and 3 > 2</p>`
	text := strings.Join(tokenData(src, TextToken), "")
	if !strings.Contains(text, "1 < 2") {
		t.Errorf("text = %q", text)
	}
}

func TestUnquotedAttributeStopsAtGT(t *testing.T) {
	src := `<param name=allowScriptAccess value=always><p>x</p>`
	tags := Tags(src)
	if len(tags) != 2 {
		t.Fatalf("got %d tags", len(tags))
	}
	if v, _ := tags[0].Attr("value"); v != "always" {
		t.Errorf("value = %q", v)
	}
}

func TestStyleRawText(t *testing.T) {
	src := `<style>p > a { color: red; }</style><a>x</a>`
	els := Elements(src)
	if len(els) != 2 || !strings.Contains(els[0].Body, "p > a") {
		t.Fatalf("els = %+v", els)
	}
}

func TestOffsets(t *testing.T) {
	src := `abc<p>def</p>`
	toks := collect(src)
	if toks[0].Offset != 0 || toks[1].Offset != 3 || toks[2].Offset != 6 {
		t.Errorf("offsets = %d %d %d", toks[0].Offset, toks[1].Offset, toks[2].Offset)
	}
}

func TestMixedQuotes(t *testing.T) {
	src := `<a href='x"y' title="a'b">z</a>`
	tags := Tags(src)
	if v, _ := tags[0].Attr("href"); v != `x"y` {
		t.Errorf("href = %q", v)
	}
	if v, _ := tags[0].Attr("title"); v != "a'b" {
		t.Errorf("title = %q", v)
	}
}

func TestEndTagWithAttrs(t *testing.T) {
	// Invalid HTML but seen in the wild; must not break tokenization.
	src := `<p>x</p class="y"><b>z</b>`
	toks := collect(src)
	var names []string
	for _, tok := range toks {
		if tok.Kind == StartTagToken {
			names = append(names, tok.Name)
		}
	}
	if len(names) != 2 || names[0] != "p" || names[1] != "b" {
		t.Errorf("start tags = %v", names)
	}
}

// Property: the tokenizer terminates and never panics on arbitrary input.
func TestQuickNeverPanics(t *testing.T) {
	f := func(s string) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		z := New(s)
		n := 0
		for {
			_, more := z.Next()
			if !more {
				break
			}
			n++
			if n > len(s)+16 {
				return false // non-termination guard
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: generated tags with arbitrary attribute values round-trip.
func TestQuickAttrRoundTrip(t *testing.T) {
	f := func(rawVal string) bool {
		// Quoted attribute values cannot contain the quote character.
		val := strings.Map(func(r rune) rune {
			if r == '"' || r == '<' {
				return 'x'
			}
			return r
		}, rawVal)
		src := `<div data-v="` + val + `"></div>`
		tags := Tags(src)
		if len(tags) != 1 {
			return false
		}
		got, ok := tags[0].Attr("data-v")
		return ok && got == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
