// Package htmlx is a small, permissive HTML tokenizer built only on the
// standard library.
//
// It exists because the crawler and the fingerprint engine need to look at
// tags, attributes, inline-script bodies, and comments of arbitrary
// real-world landing pages, and the x/net/html package is outside this
// module's stdlib-only constraint. The tokenizer is forgiving in the way
// browsers are: unclosed quotes, stray '<', and malformed tags never make
// it fail — at worst a token is skipped.
package htmlx

import "strings"

// TokenKind distinguishes the token categories the tokenizer emits.
type TokenKind int

// Token kinds.
const (
	// TextToken is character data between tags.
	TextToken TokenKind = iota
	// StartTagToken is an opening tag like <script src="x">.
	StartTagToken
	// EndTagToken is a closing tag like </script>.
	EndTagToken
	// SelfClosingTagToken is a tag with an explicit trailing slash.
	SelfClosingTagToken
	// CommentToken is a <!-- ... --> comment (data excludes the markers).
	CommentToken
	// DoctypeToken is a <!DOCTYPE ...> declaration.
	DoctypeToken
)

func (k TokenKind) String() string {
	switch k {
	case TextToken:
		return "text"
	case StartTagToken:
		return "start"
	case EndTagToken:
		return "end"
	case SelfClosingTagToken:
		return "self-closing"
	case CommentToken:
		return "comment"
	case DoctypeToken:
		return "doctype"
	}
	return "unknown"
}

// Attr is a single name="value" attribute. Keys are lowercased; values keep
// their original text with surrounding quotes stripped.
type Attr struct {
	Key, Val string
}

// Token is one lexical element of the document.
type Token struct {
	Kind TokenKind
	// Name is the lowercased tag name for tag tokens, empty otherwise.
	Name string
	// Data is the text for TextToken/CommentToken/DoctypeToken tokens.
	Data string
	// Attrs are the tag attributes in source order (tag tokens only).
	Attrs []Attr
	// Offset is the byte offset of the token start in the input.
	Offset int
}

// Attr returns the value of the named attribute (case-insensitive key) and
// whether it is present.
func (t Token) Attr(key string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// rawTextElements hold unparsed character data until their matching end tag.
var rawTextElements = map[string]bool{
	"script": true, "style": true, "textarea": true, "title": true,
}

// Tokenizer walks an HTML document. The zero value is not usable; call New.
type Tokenizer struct {
	src string
	pos int
	// pendingRaw is the element name whose raw text body must be emitted
	// next (after its start tag was returned).
	pendingRaw string
}

// New returns a Tokenizer over src.
func New(src string) *Tokenizer {
	return &Tokenizer{src: src}
}

// Next returns the next token and true, or a zero Token and false at the end
// of input.
func (z *Tokenizer) Next() (Token, bool) {
	if z.pendingRaw != "" {
		return z.rawText()
	}
	if z.pos >= len(z.src) {
		return Token{}, false
	}
	if z.src[z.pos] != '<' {
		return z.text()
	}
	// '<' at pos: decide what construct follows.
	rest := z.src[z.pos:]
	switch {
	case strings.HasPrefix(rest, "<!--"):
		return z.comment()
	case strings.HasPrefix(rest, "<!"):
		return z.doctype()
	case strings.HasPrefix(rest, "</"):
		return z.tag(true)
	case len(rest) > 1 && isNameStart(rest[1]):
		return z.tag(false)
	default:
		// Literal '<' that opens nothing; treat as text.
		return z.text()
	}
}

func isNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func (z *Tokenizer) text() (Token, bool) {
	start := z.pos
	// Consume at least one byte so a literal '<' makes progress.
	z.pos++
	for z.pos < len(z.src) && z.src[z.pos] != '<' {
		z.pos++
	}
	return Token{Kind: TextToken, Data: z.src[start:z.pos], Offset: start}, true
}

func (z *Tokenizer) comment() (Token, bool) {
	start := z.pos
	end := strings.Index(z.src[z.pos+4:], "-->")
	if end < 0 {
		data := z.src[z.pos+4:]
		z.pos = len(z.src)
		return Token{Kind: CommentToken, Data: data, Offset: start}, true
	}
	data := z.src[z.pos+4 : z.pos+4+end]
	z.pos += 4 + end + 3
	return Token{Kind: CommentToken, Data: data, Offset: start}, true
}

func (z *Tokenizer) doctype() (Token, bool) {
	start := z.pos
	end := strings.IndexByte(z.src[z.pos:], '>')
	if end < 0 {
		data := z.src[z.pos+2:]
		z.pos = len(z.src)
		return Token{Kind: DoctypeToken, Data: data, Offset: start}, true
	}
	data := z.src[z.pos+2 : z.pos+end]
	z.pos += end + 1
	return Token{Kind: DoctypeToken, Data: data, Offset: start}, true
}

// rawText emits the body of a raw-text element (script/style/...) up to its
// case-insensitive end tag, leaving the tokenizer positioned at the end tag.
func (z *Tokenizer) rawText() (Token, bool) {
	name := z.pendingRaw
	z.pendingRaw = ""
	start := z.pos
	// ASCII-fold search: strings.ToLower would re-encode invalid UTF-8
	// bytes as 3-byte U+FFFD runes, shifting every index after them past
	// the end of the real source.
	idx := indexFoldASCII(z.src[z.pos:], "</"+name)
	if idx < 0 {
		z.pos = len(z.src)
		if start == len(z.src) {
			return z.Next()
		}
		return Token{Kind: TextToken, Data: z.src[start:], Offset: start}, true
	}
	z.pos = start + idx
	if idx == 0 {
		// Empty body: skip straight to the end tag.
		return z.Next()
	}
	return Token{Kind: TextToken, Data: z.src[start : start+idx], Offset: start}, true
}

func (z *Tokenizer) tag(closing bool) (Token, bool) {
	start := z.pos
	p := z.pos + 1
	if closing {
		p++
	}
	// Tag name.
	nameStart := p
	for p < len(z.src) && isNameChar(z.src[p]) {
		p++
	}
	name := strings.ToLower(z.src[nameStart:p])
	if name == "" {
		// Malformed; consume the '<' as text.
		return z.text()
	}
	tok := Token{Kind: StartTagToken, Name: name, Offset: start}
	if closing {
		tok.Kind = EndTagToken
	}
	// Attributes.
	for p < len(z.src) {
		for p < len(z.src) && isSpace(z.src[p]) {
			p++
		}
		if p >= len(z.src) {
			break
		}
		if z.src[p] == '>' {
			p++
			z.pos = p
			z.afterTag(&tok)
			return tok, true
		}
		if z.src[p] == '/' {
			p++
			if p < len(z.src) && z.src[p] == '>' {
				p++
				z.pos = p
				if tok.Kind == StartTagToken {
					tok.Kind = SelfClosingTagToken
				}
				return tok, true
			}
			continue
		}
		// Attribute name.
		aStart := p
		for p < len(z.src) && !isSpace(z.src[p]) && z.src[p] != '=' && z.src[p] != '>' && z.src[p] != '/' {
			p++
		}
		key := strings.ToLower(z.src[aStart:p])
		val := ""
		for p < len(z.src) && isSpace(z.src[p]) {
			p++
		}
		if p < len(z.src) && z.src[p] == '=' {
			p++
			for p < len(z.src) && isSpace(z.src[p]) {
				p++
			}
			if p < len(z.src) && (z.src[p] == '"' || z.src[p] == '\'') {
				quote := z.src[p]
				p++
				vStart := p
				for p < len(z.src) && z.src[p] != quote {
					p++
				}
				val = z.src[vStart:p]
				if p < len(z.src) {
					p++ // closing quote
				}
			} else {
				vStart := p
				for p < len(z.src) && !isSpace(z.src[p]) && z.src[p] != '>' {
					p++
				}
				val = z.src[vStart:p]
			}
		}
		if key != "" {
			tok.Attrs = append(tok.Attrs, Attr{Key: key, Val: val})
		}
	}
	// Unterminated tag: emit what we have.
	z.pos = len(z.src)
	z.afterTag(&tok)
	return tok, true
}

// afterTag arms raw-text handling when a raw-text element was opened.
func (z *Tokenizer) afterTag(tok *Token) {
	if tok.Kind == StartTagToken && rawTextElements[tok.Name] {
		z.pendingRaw = tok.Name
	}
}

// indexFoldASCII returns the index of the first occurrence of needle in s
// comparing bytes with ASCII case folding, or -1. needle must already be
// lowercase (tag names are, by construction).
func indexFoldASCII(s, needle string) int {
	if len(needle) == 0 {
		return 0
	}
	for i := 0; i+len(needle) <= len(s); i++ {
		j := 0
		for ; j < len(needle); j++ {
			c := s[i+j]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != needle[j] {
				break
			}
		}
		if j == len(needle) {
			return i
		}
	}
	return -1
}

func isNameChar(c byte) bool {
	return isNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == ':' || c == '_'
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

// Tags returns every start or self-closing tag of the document in order.
// End tags, text, and comments are skipped.
func Tags(src string) []Token {
	var out []Token
	z := New(src)
	for {
		tok, ok := z.Next()
		if !ok {
			return out
		}
		if tok.Kind == StartTagToken || tok.Kind == SelfClosingTagToken {
			out = append(out, tok)
		}
	}
}

// Element is a start tag together with the raw text of its body when the
// element is a raw-text element (script, style, ...).
type Element struct {
	Tag  Token
	Body string
}

// Elements returns every start/self-closing tag; for raw-text elements the
// following text body is attached.
func Elements(src string) []Element {
	var out []Element
	z := New(src)
	var pending *Element
	for {
		tok, ok := z.Next()
		if !ok {
			break
		}
		switch tok.Kind {
		case StartTagToken, SelfClosingTagToken:
			out = append(out, Element{Tag: tok})
			if tok.Kind == StartTagToken && rawTextElements[tok.Name] {
				pending = &out[len(out)-1]
			} else {
				pending = nil
			}
		case TextToken:
			if pending != nil {
				pending.Body += tok.Data
			}
		case EndTagToken:
			pending = nil
		}
	}
	return out
}

// ScriptSrcs returns the src attribute of every <script src=...> tag in
// document order. Tags without a src (inline scripts) are skipped; empty
// src values are not.
func ScriptSrcs(src string) []string {
	var out []string
	z := New(src)
	for {
		tok, ok := z.Next()
		if !ok {
			return out
		}
		if tok.Kind != StartTagToken && tok.Kind != SelfClosingTagToken {
			continue
		}
		if tok.Name != "script" {
			continue
		}
		if s, ok := tok.Attr("src"); ok && s != "" {
			out = append(out, s)
		}
	}
}
