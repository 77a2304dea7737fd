package htmlx

import (
	"strings"
	"testing"
)

// FuzzTokenize drives the tokenizer over arbitrary byte soup. The
// invariants: Next terminates (bounded by input length), never panics, and
// the extractors built on it (Tags, Elements) survive the same input.
func FuzzTokenize(f *testing.F) {
	seeds := []string{
		"",
		"<!DOCTYPE html><html><head><title>t</title></head><body></body></html>",
		`<script src="https://cdnjs.cloudflare.com/ajax/libs/jquery/3.5.1/jquery.min.js" integrity="sha384-xyz" crossorigin="anonymous"></script>`,
		"<!-- generator: WordPress 5.6 -->",
		`<object classid="clsid:D27CDB6E"><param name="AllowScriptAccess" value="always"></object>`,
		"<script>var x = '<div>';</script>",
		"<style>p { color: red }</style>",
		"<p>text < not a tag</p>",
		"<",
		"<!",
		"</",
		"<a href='unterminated",
		"<script>never closed",
		"<div a=1 b = \"2\" c>",
		"<br/><img src=x.png>",
		"<<>><<!---->",
		"\x00\xff<div\x00>",
		strings.Repeat("<div>", 50),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		z := New(src)
		// Every token consumes at least one input byte, so the token count
		// is bounded by len(src); the slack covers the empty-input case.
		limit := len(src) + 4
		n := 0
		for {
			_, ok := z.Next()
			if !ok {
				break
			}
			n++
			if n > limit {
				t.Fatalf("tokenizer did not terminate: %d tokens from %d bytes", n, len(src))
			}
		}
		Tags(src)
		Elements(src)
	})
}
