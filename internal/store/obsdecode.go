// Decoding v3 record bodies: the read side of the '=' and '^' records
// writeDelta encodes with encoding/json, without reflection.

package store

import (
	"strconv"

	"clientres/internal/jsonlex"
)

// obsDecoder decodes the JSON bodies of '=' (an Observation) and '^' (an
// obsDelta) records on the shared jsonlex lexer. It accepts the keys
// json.Marshal writes for those types and for LibRecord, FlashRecord and
// ResourceFlags, in any order and with any JSON whitespace, and every
// string escape, decoded as encoding/json decodes it (a surrogate pair
// joins; a lone surrogate or invalid UTF-8 becomes U+FFFD). It refuses
// unknown or case-folded keys, a key given twice, fractions, exponents and
// integers that do not fit an int, a null where a value belongs, and
// trailing bytes — encoding/json accepts some of that, but no Writer ever
// wrote it, so the agreement is one-way: whatever the decoder accepts,
// json.Unmarshal accepts to an equal value (FuzzObservationCodec).
//
// One decoder belongs to one stream: its lexer scratch, library scratch
// and intern table carry over from record to record. Nothing it returns
// aliases the record line.
type obsDecoder struct {
	jsonlex.Lexer
	// libs is the scratch a record's libraries are read into; each record
	// gets a fresh slice of its own, since the dictionary keeps it.
	libs []LibRecord
	// dom holds a '^' record's domain until the record is read whole.
	dom []byte
	// intern holds the library, host, version and country strings that
	// recur on every week of a stream.
	intern jsonlex.Interner
}

// Keys of the JSON objects the decoder reads, in the order its value
// switches take them. Positions are bits of jsonlex.Lexer.Object's set.
var (
	obsKeys   = []string{"domain", "rank", "week", "status", "bytes", "country", "hasjs", "wordpress", "libs", "flashinfo", "resources"}
	deltaKeys = []string{"d", "w", "r", "s", "b", "c", "j", "wp", "ls", "l", "fs", "f", "rf"}
	libKeys   = []string{"slug", "version", "known", "ext", "host", "sri", "crossorigin", "sig"}
	flashKeys = []string{"sap", "always", "swfobject", "visible"}
	resKeys   = []string{"js", "css", "favicon", "imported", "xml", "svg", "flash", "axd"}
)

// The bits of a '^' record's keys in decodedDelta.has, in deltaKeys order.
const (
	dDomain = 1 << iota
	dWeek
	dRank
	dStatus
	dBytes
	dCountry
	dHasJS
	dWordPress
	dLibsSet
	dLibs
	dFlashSet
	dFlash
	dResources
)

// decodedDelta is a decoded '^' record: the fields it carries, in an
// Observation, and which of them it carries.
type decodedDelta struct {
	obs      Observation // Week and the changed fields; Domain is unset
	has      uint64      // deltaKeys bits of the keys present
	libsSet  bool        // "ls": Libs changed (to obs.Libs)
	flashSet bool        // "fs": Flash changed (to obs.Flash)
}

// full decodes the body of a '=' record.
func (d *obsDecoder) full(body []byte) (obs Observation, err error) {
	d.Reset(body)
	_, err = d.Object(obsKeys, func(k int) (err error) {
		switch k {
		case 0:
			obs.Domain, err = d.QuotedString()
		case 1:
			obs.Rank, err = d.int()
		case 2:
			obs.Week, err = d.int()
		case 3:
			obs.Status, err = d.int()
		case 4:
			obs.Bytes, err = d.int()
		case 5:
			obs.Country, err = d.interned()
		case 6:
			obs.HasJS, err = d.Bool()
		case 7:
			obs.WordPress, err = d.interned()
		case 8:
			obs.Libs, err = d.libRecords()
		case 9:
			obs.Flash, err = d.flash()
		case 10:
			obs.Resources, err = d.resources()
		}
		return err
	})
	if err == nil {
		err = d.End()
	}
	return obs, err
}

// delta decodes the body of a '^' record. The domain it returns is valid
// until the next call.
func (d *obsDecoder) delta(body []byte) (domain []byte, rec decodedDelta, err error) {
	d.Reset(body)
	d.dom = d.dom[:0]
	o := &rec.obs
	rec.has, err = d.Object(deltaKeys, func(k int) (err error) {
		switch 1 << k {
		case dDomain:
			var b []byte
			b, err = d.Quoted()
			d.dom = append(d.dom, b...)
		case dWeek:
			o.Week, err = d.int()
		case dRank:
			o.Rank, err = d.int()
		case dStatus:
			o.Status, err = d.int()
		case dBytes:
			o.Bytes, err = d.int()
		case dCountry:
			o.Country, err = d.interned()
		case dHasJS:
			o.HasJS, err = d.Bool()
		case dWordPress:
			o.WordPress, err = d.interned()
		case dLibsSet:
			rec.libsSet, err = d.Bool()
		case dLibs:
			o.Libs, err = d.libRecords()
		case dFlashSet:
			rec.flashSet, err = d.Bool()
		case dFlash:
			o.Flash, err = d.flash()
		case dResources:
			o.Resources, err = d.resources()
		}
		return err
	})
	if err == nil {
		err = d.End()
	}
	return d.dom, rec, err
}

// apply returns the observation rec turns prev into.
func (rec *decodedDelta) apply(prev Observation) Observation {
	o, v := prev, &rec.obs
	o.Week = v.Week
	if rec.has&dRank != 0 {
		o.Rank = v.Rank
	}
	if rec.has&dStatus != 0 {
		o.Status = v.Status
	}
	if rec.has&dBytes != 0 {
		o.Bytes = v.Bytes
	}
	if rec.has&dCountry != 0 {
		o.Country = v.Country
	}
	if rec.has&dHasJS != 0 {
		o.HasJS = v.HasJS
	}
	if rec.has&dWordPress != 0 {
		o.WordPress = v.WordPress
	}
	if rec.libsSet {
		o.Libs = v.Libs
	}
	if rec.flashSet {
		o.Flash = v.Flash
	}
	if rec.has&dResources != 0 {
		o.Resources = v.Resources
	}
	return o
}

// int parses an integer that fits an int.
func (d *obsDecoder) int() (int, error) {
	n, err := d.Int(strconv.IntSize)
	return int(n), err
}

// interned parses a string and returns it from the intern table.
func (d *obsDecoder) interned() (string, error) {
	b, err := d.Quoted()
	if err != nil {
		return "", err
	}
	return d.intern.String(b), nil
}

// libRecords parses a Libs array into a slice of its own, nil when empty
// (canonObs's form).
func (d *obsDecoder) libRecords() ([]LibRecord, error) {
	d.libs = d.libs[:0]
	err := d.Array(func() error {
		var l LibRecord
		_, err := d.Object(libKeys, func(k int) (err error) {
			switch k {
			case 0:
				l.Slug, err = d.interned()
			case 1:
				l.Version, err = d.interned()
			case 2:
				l.Known, err = d.Bool()
			case 3:
				l.External, err = d.Bool()
			case 4:
				l.Host, err = d.interned()
			case 5:
				l.SRI, err = d.Bool()
			case 6:
				l.Crossorigin, err = d.interned()
			case 7:
				l.Sig, err = d.Bool()
			}
			return err
		})
		d.libs = append(d.libs, l)
		return err
	})
	if err != nil || len(d.libs) == 0 {
		return nil, err
	}
	return append([]LibRecord(nil), d.libs...), nil
}

// flash parses a FlashRecord object.
func (d *obsDecoder) flash() (*FlashRecord, error) {
	f := new(FlashRecord)
	_, err := d.Object(flashKeys, func(k int) (err error) {
		switch k {
		case 0:
			f.ScriptAccessParam, err = d.Bool()
		case 1:
			f.Always, err = d.Bool()
		case 2:
			f.ViaSWFObject, err = d.Bool()
		case 3:
			f.Visible, err = d.Bool()
		}
		return err
	})
	return f, err
}

// resources parses a ResourceFlags object.
func (d *obsDecoder) resources() (r ResourceFlags, err error) {
	flags := [...]*bool{&r.JavaScript, &r.CSS, &r.Favicon, &r.ImportedHTML, &r.XML, &r.SVG, &r.Flash, &r.AXD}
	_, err = d.Object(resKeys, func(k int) (err error) {
		*flags[k], err = d.Bool()
		return err
	})
	return r, err
}
