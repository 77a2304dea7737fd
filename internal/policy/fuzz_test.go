package policy

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// FuzzCompilePolicy drives arbitrary source through Compile, which reads
// attacker bytes: the audit service compiles inline policies straight off
// the wire. Compile must never panic, must refuse with a "policy:" error,
// must refuse any source over MaxSourceBytes, and an accepted policy must
// evaluate a document and marshal its verdict, deterministically.
func FuzzCompilePolicy(f *testing.F) {
	for _, seed := range []string{
		ciGateYAML,
		// The scripts/check.sh server gate.
		"name: ci gate\nrules:\n  - name: stale-high\n    scope: finding\n    when: severity == \"high\" && age(disclosed) > 90d\n  - name: missing-sri\n    when: missing_sri > 0\n",
		// The audit service tests' gate and hit-path policies.
		"name: gate\nrules:\n  - name: stale-high\n    scope: finding\n    when: severity == \"high\" && age(disclosed) > 90d\n  - name: missing-sri\n    when: missing_sri > 0\n  - name: discontinued\n    level: warn\n    scope: library\n    when: discontinued\n",
		"name: clock\nrules:\n  - name: year-old-xss\n    scope: finding\n    when: advisory == \"CVE-2020-11023\" && age(disclosed) > 365d\n",
		"name: shared\nrules:\n  - name: uncovered-cdn\n    level: warn\n    scope: library\n    when: external && !sri\n",
		"rules:\n  - when: nosuchfield",
		`{"name":"j","rules":[{"name":"r","scope":"finding","when":"patch_available_days > 365 || (per_cve_only && !conditional)"}]}`,
		`{"rules":[{"name":"x","scope":"library","when":"version startswith \"1.\" && page.missing_sri >= 1.5"}]}`,
		`{"rules":[{"name":"t","scope":"finding","when":"age(disclosed) > 1.5d && fixed_in contains \"3\""}]}`,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, src []byte) {
		p, err := Compile(src)
		if len(src) > MaxSourceBytes && err == nil {
			t.Fatalf("accepted a %d-byte source over the %d-byte cap", len(src), MaxSourceBytes)
		}
		if err != nil {
			if !strings.HasPrefix(err.Error(), "policy:") {
				t.Fatalf("error without the policy: prefix: %v", err)
			}
			return
		}
		// The cap is on the bytes received, not on what survives
		// trimming: the same policy padded past it is refused.
		padded := append(append([]byte(nil), src...), bytes.Repeat([]byte(" "), MaxSourceBytes+1-len(src))...)
		if _, err := Compile(padded); err == nil {
			t.Fatalf("accepted a %d-byte padded source over the %d-byte cap", len(padded), MaxSourceBytes)
		}

		v1, err := json.Marshal(p.Eval(testDoc()))
		if err != nil {
			t.Fatalf("verdict does not marshal: %v", err)
		}
		p2, err := Compile(src)
		if err != nil {
			t.Fatalf("second compile of accepted source failed: %v", err)
		}
		v2, err := json.Marshal(p2.Eval(testDoc()))
		if err != nil {
			t.Fatalf("second verdict does not marshal: %v", err)
		}
		if !bytes.Equal(v1, v2) {
			t.Fatalf("same source, different verdicts:\n%s\n%s", v1, v2)
		}
	})
}
