package distcrawl

import (
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestCoordinatorRefusesUnservableState: a rehydrated journal with a null
// partition, or a frontier outside the study, is refused as corrupt when
// the coordinator starts, not found by a nil dereference at the first
// lease sweep.
func TestCoordinatorRefusesUnservableState(t *testing.T) {
	dir := t.TempDir()
	spec := RunSpec{Domains: 20, Weeks: 4, Seed: 3, Partitions: 2, Dir: dir, LeaseTTL: time.Second}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for name, parts := range map[string]string{
		"null partition":       `[null, {}]`,
		"negative next_week":   `[{"next_week": -1}, {}]`,
		"next_week past weeks": `[{}, {"next_week": 5}]`,
	} {
		state := `{"spec": ` + string(specJSON) + `, "next_epoch": 1, "parts": ` + parts + `}`
		if err := os.WriteFile(statePath(dir), []byte(state), 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := NewCoordinator(spec)
		if err == nil {
			c.Lease("w")
			c.Status()
			t.Errorf("%s: state accepted", name)
			continue
		}
		if !strings.HasPrefix(err.Error(), "distcrawl: corrupt state") {
			t.Errorf("%s: error %q is not a corrupt-state refusal", name, err)
		}
	}
}

// FuzzCoordinatorState: every journal either fails to rehydrate with a
// distcrawl error or yields a coordinator that leases, commits and reports
// status without panicking.
func FuzzCoordinatorState(f *testing.F) {
	spec := RunSpec{Domains: 20, Weeks: 4, Seed: 3, Partitions: 2, Dir: "fuzz.run", LeaseTTL: time.Second}
	clock := time.Unix(1_700_000_000, 0)
	seed, err := json.Marshal(coordState{Spec: spec, NextEpoch: 3, Parts: []*partition{
		{NextWeek: 2, Lease: &lease{Worker: "w1", Epoch: 2, Deadline: clock.Add(time.Second)},
			Spans: []Span{{Partition: 0, Epoch: 1, FromWeek: 0, ToWeek: 2, Worker: "w1"}}},
		{NextWeek: 4, Done: true, Spans: []Span{{Partition: 1, Epoch: 1, FromWeek: 0, ToWeek: 4, Worker: "w0"}}},
	}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(strings.Replace(string(seed), `"parts":[`, `"parts":[null,`, 1)))
	f.Add([]byte(`{"parts":[null,null]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := parseState(data, spec)
		if err != nil {
			if !strings.HasPrefix(err.Error(), "distcrawl: ") {
				t.Fatalf("error without the package prefix: %v", err)
			}
			return
		}
		c := &Coordinator{st: st, statePath: statePath(t.TempDir()), Now: func() time.Time { return clock }}
		if l := c.Lease("fuzz"); l.Assigned {
			c.Commit(CommitRequest{Worker: "fuzz", Partition: l.Partition, Epoch: l.Epoch, Week: l.StartWeek})
		}
		c.Status()
	})
}
