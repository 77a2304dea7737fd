package poclab

import (
	"fmt"
	"strings"

	"clientres/internal/semver"
	"clientres/internal/vulndb"
)

// Env is one controlled experiment environment: a single library at a
// single version, with effect recorders the PoCs observe. It corresponds to
// one of the paper's "85 different environments".
type Env struct {
	Lib     vulndb.Library
	Version semver.Version

	executed []string          // script payloads that ran
	polluted map[string]string // Object.prototype pollution results
	injected []string          // code injected into generated sources
	steps    int               // simulated regex-engine steps
	leaked   bool              // authorization bypass observed
}

// NewEnv sets up the environment for a library slug and version. The
// version need not be in the catalog (the paper also tested in-between
// builds), but the slug must be known.
func NewEnv(slug string, version semver.Version) (*Env, error) {
	lib, ok := vulndb.LibraryBySlug(slug)
	if !ok {
		return nil, fmt.Errorf("poclab: unknown library %q", slug)
	}
	return &Env{Lib: lib, Version: version, polluted: map[string]string{}}, nil
}

// recordScript registers an executed script payload.
func (e *Env) recordScript(code string) { e.executed = append(e.executed, code) }

// recordInjection registers attacker code spliced into generated source.
func (e *Env) recordInjection(code string) { e.injected = append(e.injected, code) }

// ScriptExecuted reports whether any script containing marker ran.
func (e *Env) ScriptExecuted(marker string) bool {
	for _, code := range e.executed {
		if contains(code, marker) {
			return true
		}
	}
	return false
}

// PrototypePolluted reports whether Object.prototype gained the given key.
func (e *Env) PrototypePolluted(key string) bool {
	_, ok := e.polluted[key]
	return ok
}

// CodeInjected reports whether attacker code reached a generated source.
func (e *Env) CodeInjected(marker string) bool {
	for _, code := range e.injected {
		if contains(code, marker) {
			return true
		}
	}
	return false
}

// Steps returns the simulated regex-engine step count of the last call.
func (e *Env) Steps() int { return e.steps }

// redosThreshold is the step budget above which an input is considered a
// denial of service for the experiment's fixed input size.
const redosThreshold = 1_000_000

// redosBudget is the step budget every ReDoS emulator passes to
// matchSteps. The matcher gives up on step budget+1 — exactly the first
// step DoSObserved counts as a blow-up — so a vulnerable pattern stops at
// redosThreshold+1 steps with the same verdict a larger budget would give,
// and no work is spent past the point the verdict is decided.
const redosBudget = redosThreshold

// DoSObserved reports whether the last operation blew the step budget.
func (e *Env) DoSObserved() bool { return e.steps > redosThreshold }

// AuthorizationBypassed reports a missing-authorization effect.
func (e *Env) AuthorizationBypassed() bool { return e.leaked }

// in reports whether the env's version lies in [introduced, fixed), with a
// zero introduced meaning "since the first release" and a zero fixed
// meaning "never fixed". This is the code-history conditioning primitive
// every emulator uses.
func (e *Env) in(introduced, fixed string) bool {
	v := e.Version
	if introduced != "" {
		if v.Less(semver.MustParse(introduced)) {
			return false
		}
	}
	if fixed != "" {
		if !v.Less(semver.MustParse(fixed)) {
			return false
		}
	}
	return true
}

func contains(haystack, needle string) bool { return strings.Contains(haystack, needle) }
