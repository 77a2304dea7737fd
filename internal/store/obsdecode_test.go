package store

// The v3 record decoder against its oracle, encoding/json: what it
// accepts, what it refuses, that what it hands out may be kept, and that
// whatever the writer encodes, the reader decodes.

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
)

// applyDelta is the oracle's delta: the observation a json.Unmarshal'd
// delta record turns prev into.
func applyDelta(prev Observation, d *obsDelta) Observation {
	o := prev
	o.Week = d.Week
	if d.Rank != nil {
		o.Rank = *d.Rank
	}
	if d.Status != nil {
		o.Status = *d.Status
	}
	if d.Bytes != nil {
		o.Bytes = *d.Bytes
	}
	if d.Country != nil {
		o.Country = *d.Country
	}
	if d.HasJS != nil {
		o.HasJS = *d.HasJS
	}
	if d.WordPress != nil {
		o.WordPress = *d.WordPress
	}
	if d.LibsSet {
		o.Libs = d.Libs
	}
	if d.FlashSet {
		o.Flash = d.Flash
	}
	if d.Resources != nil {
		o.Resources = *d.Resources
	}
	return canonObs(o)
}

// deltaBase is what delta records are applied to in the agreement checks:
// every field set, so a field a decoder drops or invents shows.
var deltaBase = Observation{Domain: "base.example", Rank: 7, Week: 3, Status: 301, Bytes: 999,
	Country: "DE", HasJS: true, WordPress: "4.9",
	Libs:      []LibRecord{{Slug: "base", Version: "0.1", Known: true, External: true, Host: "h", SRI: true, Crossorigin: "c", Sig: true}},
	Flash:     &FlashRecord{ScriptAccessParam: true, Always: true, ViaSWFObject: true, Visible: true},
	Resources: ResourceFlags{JavaScript: true, CSS: true, Favicon: true, ImportedHTML: true, XML: true, SVG: true, Flash: true, AXD: true}}

// agree decodes body as the record of the given mark with d, and reports
// whether d accepted it. When it did, encoding/json must accept it too and
// decode it to an equal value: the same observation for '=', for '^' the
// same domain and the same observation once applied to deltaBase.
func agree(t *testing.T, d *obsDecoder, mark byte, body []byte) bool {
	t.Helper()
	switch mark {
	case fullMark:
		got, err := d.full(body)
		if err != nil {
			return false
		}
		var want Observation
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("accepted '=' %q, which encoding/json refuses: %v", body, err)
		}
		if !reflect.DeepEqual(got, canonObs(want)) {
			t.Fatalf("'=' %q\n decoded %#v\n  oracle %#v", body, got, canonObs(want))
		}
	case deltaMark:
		domain, rec, err := d.delta(body)
		if err != nil {
			return false
		}
		var want obsDelta
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatalf("accepted '^' %q, which encoding/json refuses: %v", body, err)
		}
		if string(domain) != want.Domain {
			t.Fatalf("'^' %q: domain %q, oracle %q", body, domain, want.Domain)
		}
		if got, want := rec.apply(deltaBase), applyDelta(deltaBase, &want); !reflect.DeepEqual(got, want) {
			t.Fatalf("'^' %q\n applied %#v\n  oracle %#v", body, got, want)
		}
	default:
		return false
	}
	return true
}

func TestObservationDecoderGrammar(t *testing.T) {
	accept := []string{
		`={"domain":"a.example","rank":1,"week":0,"status":200,"bytes":4096}`,
		`={"domain":"edited.example","rank":2,"week":0,"status":200,"bytes":2048,"hasjs":true,"resources":{"js":true,"favicon":true}}`,
		`={"domain":"f.example","rank":5,"week":0,"status":200,"bytes":1500,"country":"US","hasjs":true,"wordpress":"5.6",` +
			`"libs":[{"slug":"bootstrap","version":"3.3.7","known":true,"ext":true,"host":"maxcdn.bootstrapcdn.com","sri":true,"crossorigin":"anonymous","sig":true}],` +
			`"flashinfo":{"sap":true,"always":true,"swfobject":true,"visible":true},` +
			`"resources":{"js":true,"css":true,"favicon":true,"imported":true,"xml":true,"svg":true,"flash":true,"axd":true}}`,
		"=\t\r\n { \"bytes\" : 1 , \"domain\":\"x\" , \"week\":-0 } \t\r",
		`={}`,
		`={"libs":[],"flashinfo":{},"resources":{}}`,
		`={"hasjs":false,"libs":[{"slug":"a","known":false},{"slug":"b"}]}`,
		`={"rank":9223372036854775807,"week":-9223372036854775808}`,
		`={"domain":"\"\\\/\b\f\n\r\té€ 😀 é"}`,
		`={"domain":"lone \ud83d high, lone \ude00 low","country":"\ud83dA"}`,
		"={\"domain\":\"raw \xff\xfe invalid, \xed\xa0\x80 surrogate, \xe2\x82 cut\"}",
		`^{"d":"flaky.example","w":2,"s":0,"b":0,"j":false,"wp":"","ls":true,"rf":{}}`,
		`^{"d":"edited.example","w":3,"b":2300}`,
		`^{"d":"f.example","w":4,"s":200,"b":1500,"j":true,"wp":"5.6","ls":true,"l":[{"slug":"jquery","version":"2.2.4","known":true}],"rf":{"js":true}}`,
		`^{"d":"f.example","w":5,"r":3,"c":"FR","fs":true,"f":{"visible":true}}`,
		`^{"d":"f.example","w":6,"fs":true}`,
		`^{"d":"f.example","w":6,"ls":true,"l":[]}`,
		`^{"w":7,"d":"f.example","ls":false,"l":[{"slug":"ignored"}],"fs":false,"f":{}}`,
		`^{}`,
	}
	for _, line := range accept {
		var d obsDecoder
		if !agree(t, &d, line[0], []byte(line[1:])) {
			_, _, derr := d.delta([]byte(line[1:]))
			_, ferr := d.full([]byte(line[1:]))
			t.Errorf("refused %s: '=' %v, '^' %v", line, ferr, derr)
		}
	}

	refuse := []string{
		``,
		`[]`,
		`null`,
		`={"domain":"a"}x`,
		`={"domain":"a"}{}`,
		`={"domain":"a",}`,
		`={"domain":"a" "rank":1}`,
		`={"Domain":"a"}`,
		`={"DOMAIN":"a"}`,
		`={"extra":1}`,
		`={"domain":"a","domain":"b"}`,
		`={"rank":1,"rank":1}`,
		`={"rank":1.0}`,
		`={"rank":1e2}`,
		`={"rank":1E2}`,
		`={"rank":01}`,
		`={"rank":-}`,
		`={"rank":+1}`,
		`={"rank":9223372036854775808}`,
		`={"rank":-9223372036854775809}`,
		`={"rank":"1"}`,
		`={"rank":null}`,
		`={"domain":null}`,
		`={"country":1}`,
		`={"hasjs":null}`,
		`={"hasjs":1}`,
		`={"hasjs":"true"}`,
		`={"hasjs":tru}`,
		`={"libs":null}`,
		`={"libs":{}}`,
		`={"libs":[null]}`,
		`={"libs":[{"slug":"a"},]}`,
		`={"libs":[{"slug":"a","slug":"b"}]}`,
		`={"libs":[{"Slug":"a"}]}`,
		`={"libs":[{"slug":"a","other":1}]}`,
		`={"flashinfo":null}`,
		`={"flashinfo":{"sap":null}}`,
		`={"flashinfo":{"unknown":true}}`,
		`={"resources":null}`,
		`={"resources":{"js":true,"js":false}}`,
		`={"resources":{"JS":true}}`,
		`={"domain":"unterminated}`,
		`={"domain":"bad \x escape"}`,
		`={"domain":"bad \u12 escape"}`,
		"={\"domain\":\"raw\ncontrol\"}",
		`={"domain":"a"`,
		`^{"d":"a","w":1}x`,
		`^{"d":"a","d":"a"}`,
		`^{"d":"a","w":1.5}`,
		`^{"d":null}`,
		`^{"r":null}`,
		`^{"ls":null}`,
		`^{"l":null}`,
		`^{"f":null}`,
		`^{"rf":null}`,
		`^{"D":"a"}`,
		`^{"domain":"a"}`,
		`^{"d":"a","x":1}`,
	}
	for _, line := range refuse {
		var d obsDecoder
		mark, body := byte(fullMark), []byte(nil)
		if line != "" {
			mark, body = line[0], []byte(line[1:])
		}
		if mark != fullMark && mark != deltaMark {
			mark, body = fullMark, []byte(line)
		}
		if agree(t, &d, mark, body) {
			t.Errorf("accepted %s", line)
		}
	}
}

// TestForEachObservationsMayBeRetained keeps every observation ForEach
// hands out, unchanged and uncloned, and checks them against a second
// decode of the same store: nothing the decoder does later may write into
// an observation it has handed out.
func TestForEachObservationsMayBeRetained(t *testing.T) {
	for shape, obs := range map[string][]Observation{
		"churny":       genObs(23, 7),
		"longitudinal": genLongitudinal(31, 12, 7),
	} {
		dir := filepath.Join(t.TempDir(), shape)
		writeSegmented(t, dir, obs, 2)
		var kept []Observation
		if err := ForEach(dir, func(o Observation) error {
			kept = append(kept, o)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		i := 0
		if err := ForEach(dir, func(o Observation) error {
			if i >= len(kept) || !reflect.DeepEqual(kept[i], o) {
				t.Fatalf("%s: observation %d changed after it was handed out", shape, i)
			}
			i++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if i != len(kept) || len(kept) != len(obs) {
			t.Fatalf("%s: %d then %d observations of %d written", shape, len(kept), i, len(obs))
		}
	}
}

// TestInvalidUTF8DomainRoundTrips: a domain that is not valid UTF-8,
// unchanged for two weeks, reads back. Its '=' record's JSON names it
// with U+FFFD in place of the bad byte, so a '~' record carrying the raw
// bytes would name a domain the reader never saw.
func TestInvalidUTF8DomainRoundTrips(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	o := Observation{Domain: "bad\xffname.com", Rank: 1, Status: 200, Bytes: 4096}
	w, err := CreateSegmented(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for wk := 0; wk < 2; wk++ {
		o.Week = wk
		if err := w.Write(o); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAll(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Domain != "bad�name.com" || got[1].Domain != got[0].Domain || got[1].Week != 1 {
		t.Fatalf("read back %+v", got)
	}
}

// jsonRoundTrip is what the reader must make of an observation the
// writer was given: what encoding/json makes of it.
func jsonRoundTrip(t *testing.T, o Observation) Observation {
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	var back Observation
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	return canonObs(back)
}

// FuzzObservationCodec holds the v3 decoder to encoding/json two ways:
// (a) any '=' or '^' body it accepts, encoding/json accepts too and
// decodes to an equal value, also on a second decode through the same
// decoder; (b) whatever the writer encodes from fuzzed fields, the reader
// decodes to what encoding/json makes of it — record by record, and
// through a whole store: Write, Close, ForEach.
func FuzzObservationCodec(f *testing.F) {
	for s := 0; s < 2; s++ {
		for _, line := range bytes.Split(gunzip(f, SegmentPath(filepath.Join("testdata", "v3.store"), s)), []byte("\n")) {
			if len(line) > 0 {
				f.Add(line, "seed.example", 1, 200, "US", "5.6", "jquery", "1.12.4", "", uint16(0x1ff))
			}
		}
	}
	f.Add([]byte(`^{"d":"\ud83d","w":1,"ls":true,"l":[]}`), "bad\xffname.com", -1, 0, "\xed\xa0\x80", "", "", "", "\x00", uint16(0))
	f.Add([]byte(`={"Domain":"a","domain":"b"}`), "nl\nname", 1<<31, 1<<40, "", "\"", "a\\b", "<>&", "h", uint16(0xffff))

	f.Fuzz(func(t *testing.T, data []byte, domain string, week, status int, country, wp, slug, version, host string, bits uint16) {
		// (a) One-way agreement on arbitrary bytes, twice through one
		// decoder: its scratch and intern table carry over between records.
		var d obsDecoder
		if len(data) > 0 && agree(t, &d, data[0], data[1:]) && !agree(t, &d, data[0], data[1:]) {
			t.Fatalf("a second decode of %q refused it", data)
		}

		// (b) What the writer encodes, the reader decodes.
		bit := func(i uint) bool { return bits&(1<<i) != 0 }
		o := Observation{Domain: domain, Rank: status ^ week, Week: week, Status: status, Bytes: len(data),
			Country: country, HasJS: bit(0), WordPress: wp,
			Resources: ResourceFlags{JavaScript: bit(1), CSS: bit(2), Favicon: bit(3), ImportedHTML: bit(4),
				XML: bit(5), SVG: bit(6), Flash: bit(7), AXD: bit(8)}}
		if bit(9) {
			o.Libs = []LibRecord{{Slug: slug, Version: version, Known: bit(10), External: bit(11), Host: host,
				SRI: bit(12), Crossorigin: country, Sig: bit(13)}, {Slug: version}}
		}
		if bit(14) {
			o.Flash = &FlashRecord{ScriptAccessParam: bit(0), Always: bit(1), ViaSWFObject: bit(2), Visible: bit(15)}
		}
		full, err := json.Marshal(o)
		if err != nil {
			t.Fatal(err)
		}
		if !agree(t, &d, fullMark, full) {
			_, err := d.full(full)
			t.Fatalf("refused json.Marshal's '=' %s: %v", full, err)
		}
		for _, prev := range []Observation{deltaBase, o} {
			p := prev
			p.Domain = o.Domain
			body, err := json.Marshal(diffObs(&p, &o))
			if err != nil {
				t.Fatal(err)
			}
			if !agree(t, &d, deltaMark, body) {
				_, _, err := d.delta(body)
				t.Fatalf("refused json.Marshal's '^' %s: %v", body, err)
			}
		}

		// Through a whole store: first sighting, an unchanged week, a
		// changed one, and a second domain beside it.
		weeks := []Observation{o, o, o, deltaBase}
		weeks[1].Week, weeks[2].Week = week+1, week+2
		weeks[2].HasJS, weeks[2].Libs = !o.HasJS, nil
		dir := filepath.Join(t.TempDir(), "store")
		writeSegmented(t, dir, weeks, 1)
		got, err := ReadAll(dir)
		if err != nil {
			t.Fatalf("the reader refused what the writer wrote for domain %q: %v", domain, err)
		}
		if len(got) != len(weeks) {
			t.Fatalf("%d observations written, %d read", len(weeks), len(got))
		}
		for i := range weeks {
			if want := jsonRoundTrip(t, weeks[i]); !reflect.DeepEqual(got[i], want) {
				t.Fatalf("observation %d\n read %#v\n want %#v", i, got[i], want)
			}
		}
	})
}
