package jsonlex

import (
	"encoding/json"
	"fmt"
	"testing"
)

// lexSeeds are JSON values at the edges of the string and integer
// grammars: every escape, surrogate pairs and lone surrogates, invalid
// UTF-8, and integers around the int32 and int64 limits.
var lexSeeds = []string{
	`"plain"`, `""`, ` "padded" `,
	`"\" \\ \/ \b \f \n \r \t"`, `"café é"`, `"\u0000"`, `"mixed é and \n"`,
	`"😀"`, `"a😀b"`,
	`"\ud83d"`, `"\ude00"`, `"\ud83dA"`, `"\ud83d😀"`, `"\ud83dx"`,
	"\"\xff\"", "\"a\xc3\"", "\"\xc0\xaf\"", "\"\xed\xa0\x80\"", "\"ok\xe2\x82\"",
	"\"\x01\"", `"\x"`, `"\u12"`, `"\u12g4"`, `"open`, `"\`,
	`0`, `-0`, `42`, ` 7 `, `-1`,
	`2147483647`, `2147483648`, `-2147483648`, `-2147483649`,
	`9223372036854775807`, `9223372036854775808`, `-9223372036854775808`, `-9223372036854775809`,
	`99999999999999999999`, `18446744073709551616`,
	`01`, `-`, `1.0`, `1e3`, `1E3`, `+1`, `1 2`,
}

// decodesLike reports a difference between the lexer and encoding/json on
// data, a whole JSON value: whatever the lexer accepts as a string or as an
// int of 32 or 64 bits, encoding/json must decode to an equal value.
func decodesLike(data []byte) (diff string, accepted bool) {
	var l Lexer
	l.Reset(data)
	if got, err := l.QuotedString(); err == nil && l.End() == nil {
		accepted = true
		var want string
		if err := json.Unmarshal(data, &want); err != nil {
			return fmt.Sprintf("string %q refused by encoding/json: %v", got, err), true
		}
		if got != want {
			return fmt.Sprintf("string %q decodes as %q", got, want), true
		}
	}
	for _, bits := range []int{32, 64} {
		l.Reset(data)
		got, err := l.Int(bits)
		if err != nil || l.End() != nil {
			continue
		}
		accepted = true
		var want int64
		if bits == 32 {
			var w int32
			err = json.Unmarshal(data, &w)
			want = int64(w)
		} else {
			err = json.Unmarshal(data, &want)
		}
		if err != nil {
			return fmt.Sprintf("int%d %d refused by encoding/json: %v", bits, got, err), true
		}
		if got != want {
			return fmt.Sprintf("int%d %d decodes as %d", bits, got, want), true
		}
	}
	return "", accepted
}

// TestLexerDecodesLikeEncodingJSON runs the differential check on the seeds
// and also holds its converse there: a seed encoding/json decodes as a
// string or an int64, the lexer accepts too, so the check is not passed by
// refusing everything.
func TestLexerDecodesLikeEncodingJSON(t *testing.T) {
	for _, seed := range lexSeeds {
		diff, accepted := decodesLike([]byte(seed))
		if diff != "" {
			t.Errorf("%q: %s", seed, diff)
		}
		var s string
		var n int64
		if decodes := json.Unmarshal([]byte(seed), &s) == nil || json.Unmarshal([]byte(seed), &n) == nil; decodes != accepted {
			t.Errorf("%q: encoding/json decodes it: %v, the lexer accepts it: %v", seed, decodes, accepted)
		}
	}
}

// FuzzLexerMatchesEncodingJSON is the differential check on any bytes.
func FuzzLexerMatchesEncodingJSON(f *testing.F) {
	for _, seed := range lexSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if diff, _ := decodesLike(data); diff != "" {
			t.Fatalf("%q: %s", data, diff)
		}
	})
}
