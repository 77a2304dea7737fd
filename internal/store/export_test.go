package store

import "encoding/json"

// Hooks for the external benchmark of the v3 record decoder
// (obsdecode_bench_test.go), which generates its store with packages that
// import this one.

// ObsDecoder is the decoder decodeDelta reads '=' and '^' bodies with.
type ObsDecoder = obsDecoder

// DecodeBody decodes the body of one '=' or '^' record line (mark
// included, newline not), as decodeDelta does before it applies a delta.
func (d *obsDecoder) DecodeBody(line []byte) (err error) {
	if line[0] == fullMark {
		_, err = d.full(line[1:])
	} else {
		_, _, err = d.delta(line[1:])
	}
	return err
}

// UnmarshalBody decodes the same body with encoding/json, into the type
// the writer encoded it from.
func UnmarshalBody(line []byte) error {
	if line[0] == fullMark {
		var o Observation
		return json.Unmarshal(line[1:], &o)
	}
	var d obsDelta
	return json.Unmarshal(line[1:], &d)
}
