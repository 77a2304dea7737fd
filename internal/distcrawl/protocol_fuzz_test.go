package distcrawl

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// protocolPaths are the coordinator's endpoints, indexed by a script
// line's first byte in FuzzCoordinatorHandler.
var protocolPaths = []string{PathRegister, PathLease, PathRenew, PathCommit, PathStatus}

// maxScriptRequests caps one fuzz script: every accepted request fsyncs
// the journal, and a mutated script can repeat a line thousands of times.
const maxScriptRequests = 32

// FuzzCoordinatorHandler: a script of requests — one per line, at most
// maxScriptRequests, the first byte choosing the path (low bits) and GET
// instead of POST (high bit), the rest the body — is answered 200, 400 or
// 405 without a panic, and leaves a journal that rehydrates with every
// partition's spans tiling [0, NextWeek).
func FuzzCoordinatorHandler(f *testing.F) {
	f.Add([]byte("\x00{\"worker\":\"w\"}\n" +
		"\x01{\"worker\":\"w\"}\n" +
		"\x02{\"worker\":\"w\",\"partition\":0,\"epoch\":1}\n" +
		"\x03{\"worker\":\"w\",\"partition\":0,\"epoch\":1,\"week\":0,\"metrics\":{\"Attempts\":3,\"Latency\":[0,1,2]}}\n" +
		"\x03{\"worker\":\"w\",\"partition\":0,\"epoch\":1,\"week\":1}\n" +
		"\x04"))
	f.Add([]byte("\x01{\"worker\":\"a\"}\n\x01{\"worker\":\"b\"}\n" +
		"\x03{\"worker\":\"b\",\"partition\":1,\"epoch\":2,\"week\":0}\n" +
		"\x03{\"worker\":\"b\",\"partition\":1,\"epoch\":2,\"week\":2}\n" +
		"\x03{\"worker\":\"a\",\"partition\":1,\"epoch\":2,\"week\":1}\n" +
		"\x03{\"worker\":\"b\",\"partition\":-1,\"epoch\":2,\"week\":1}"))
	f.Add([]byte("\x81{}\n\x03{\"week\":\"x\"}\n\x02null\n\x01{\"worker\":"))
	f.Fuzz(func(t *testing.T, script []byte) {
		clock := time.Unix(1_700_000_000, 0)
		spec := RunSpec{Domains: 20, Weeks: 3, Seed: 3, Partitions: 2, Dir: t.TempDir(), LeaseTTL: time.Second}
		c, err := NewCoordinator(spec)
		if err != nil {
			t.Fatal(err)
		}
		c.Now = func() time.Time { return clock }
		h := c.Handler()
		lines := bytes.Split(script, []byte("\n"))
		if len(lines) > maxScriptRequests {
			lines = lines[:maxScriptRequests]
		}
		for _, line := range lines {
			if len(line) == 0 {
				continue
			}
			method := http.MethodPost
			if line[0]&0x80 != 0 {
				method = http.MethodGet
			}
			path := protocolPaths[int(line[0]&0x7f)%len(protocolPaths)]
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(line[1:])))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusMethodNotAllowed:
			default:
				t.Fatalf("%s %s: HTTP %d", method, path, rec.Code)
			}
		}
		data, err := os.ReadFile(statePath(spec.Dir))
		if err != nil {
			t.Fatal(err)
		}
		st, err := parseState(data, spec)
		if err != nil {
			t.Fatalf("journal no longer rehydrates: %v", err)
		}
		for p, part := range st.Parts {
			next := 0
			for _, sp := range part.Spans {
				if sp.Partition != p || sp.FromWeek != next || sp.ToWeek <= sp.FromWeek {
					t.Fatalf("partition %d: span %+v does not continue [0, %d)", p, sp, next)
				}
				next = sp.ToWeek
			}
			if next != part.NextWeek {
				t.Fatalf("partition %d: spans tile [0, %d), next_week is %d", p, next, part.NextWeek)
			}
		}
	})
}

// TestHandlerBoundsRequestBody: a body past maxRequestBytes is refused
// with 400 before it reaches the coordinator — here, no lease is granted.
func TestHandlerBoundsRequestBody(t *testing.T) {
	c, err := NewCoordinator(RunSpec{Domains: 20, Weeks: 3, Seed: 3, Partitions: 1, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	body := `{"worker":"` + strings.Repeat("w", maxRequestBytes) + `"}`
	rec := httptest.NewRecorder()
	c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, PathLease, strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("oversized lease request: HTTP %d, want 400", rec.Code)
	}
	if st := c.Status(); len(st.Assigned) != 0 {
		t.Fatalf("oversized lease request granted a lease: %+v", st.Assigned)
	}
}

// FuzzClientResponses: whatever status and bytes a coordinator answers
// with, every client call returns a value or a distcrawl error, never a
// panic — and an error whenever the status is not 200, whatever the body.
func FuzzClientResponses(f *testing.F) {
	var mu sync.Mutex
	var code int
	var reply []byte
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		c, b := code, reply
		mu.Unlock()
		w.WriteHeader(c)
		_, _ = w.Write(b)
	}))
	f.Cleanup(srv.Close)
	c := &Client{BaseURL: srv.URL, HTTP: srv.Client()}

	for _, v := range []any{
		LeaseResponse{Assigned: true, Partition: 1, Epoch: 4, StartWeek: 2, TTL: time.Second},
		RenewResponse{Reason: "lease expired"},
		CommitResponse{OK: true, Done: true},
		StatusResponse{Spans: []Span{{Partition: 0, Epoch: 1, ToWeek: 3}}, Assigned: map[int]int64{1: 4}},
	} {
		seed, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint16(0), seed)
		f.Add(uint16(300), seed) // 500 with a well-formed body
	}
	f.Add(uint16(0), []byte(`{"assigned":{"x":1}}`))
	f.Add(uint16(0), []byte(`{"spans":[{"metrics":{"Latency":[1,-2,3]}}]}`))
	f.Add(uint16(0), []byte(`null`))
	f.Add(uint16(0), []byte{})
	f.Add(uint16(4), []byte(`{}`)) // 204: a body is not allowed
	f.Fuzz(func(t *testing.T, status uint16, data []byte) {
		mu.Lock()
		// 200 through 599: a 1xx is an interim reply, not an answer.
		code, reply = 200+int(status)%400, data
		mu.Unlock()
		var errs []error
		_, err := c.Lease("w")
		errs = append(errs, err)
		_, err = c.Renew(RenewRequest{Worker: "w", Partition: 1, Epoch: 4})
		errs = append(errs, err)
		_, err = c.Commit(CommitRequest{Worker: "w", Partition: 1, Epoch: 4, Week: 2})
		errs = append(errs, err)
		_, err = c.Status()
		errs = append(errs, err)
		for i, err := range errs {
			if err != nil && !strings.HasPrefix(err.Error(), "distcrawl: ") {
				t.Fatalf("error without the package prefix: %v", err)
			}
			if err == nil && code != http.StatusOK {
				t.Fatalf("call %d accepted an HTTP %d reply", i, code)
			}
		}
	})
}
