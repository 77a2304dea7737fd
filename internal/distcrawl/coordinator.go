package distcrawl

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"clientres/internal/crawler"
	"clientres/internal/store"
)

// StateName is the coordinator's assignment-state journal inside the
// store root, committed atomically (temp+fsync+rename, the checkpoint
// discipline) after every state mutation — a coordinator restart
// rehydrates leases and accepted spans instead of restarting the crawl.
const StateName = "coordinator.json"

// lease is one live assignment.
type lease struct {
	Worker string `json:"worker"`
	Epoch  int64  `json:"epoch"`
	// Deadline is the instant the lease expires without a renewal.
	Deadline time.Time `json:"deadline"`
	// StartWeek is the week the assignment began at (the span's FromWeek
	// once its first commit is accepted).
	StartWeek int `json:"start_week"`
}

// partition is one unit of assignment and recovery.
type partition struct {
	// NextWeek is the first week no commit has been accepted for.
	NextWeek int  `json:"next_week"`
	Done     bool `json:"done"`
	// Lease is the live assignment (nil when idle or done).
	Lease *lease `json:"lease,omitempty"`
	// Spans are the accepted commit ranges, in grant (= epoch, = week)
	// order. They tile [0, NextWeek) exactly.
	Spans []Span `json:"spans,omitempty"`
}

// coordState is the persisted assignment state.
type coordState struct {
	Spec RunSpec `json:"spec"`
	// NextEpoch is the next fencing token to grant; epochs are unique and
	// strictly increasing across the whole run, never per partition.
	NextEpoch int64        `json:"next_epoch"`
	Parts     []*partition `json:"parts"`
}

// Coordinator owns the frontier: which weeks of which partitions are
// accepted, who leases what, and under which epoch. All methods are safe
// for concurrent use; expiry is evaluated lazily against Now at every
// entry point, so a blocked clock (tests) or a paused process never
// spuriously expires anyone.
type Coordinator struct {
	// Now is the clock (nil = time.Now); injectable so tests drive lease
	// expiry deterministically.
	Now func() time.Time
	// Logf, when set, receives one line per state transition.
	Logf func(format string, args ...any)

	mu        sync.Mutex
	st        coordState
	statePath string
}

// NewCoordinator creates a coordinator for spec, persisting assignment
// state under spec.Dir. If a state journal from a previous coordinator
// run exists there, it is rehydrated — leases resume with their recorded
// deadlines (stale ones simply expire at the next sweep) — after
// verifying it describes the same run, wherever its directory has moved;
// pass a different Dir for a different run.
func NewCoordinator(spec RunSpec) (*Coordinator, error) {
	if spec.Partitions < 1 {
		return nil, fmt.Errorf("distcrawl: %d partitions", spec.Partitions)
	}
	if spec.Weeks < 1 || spec.Domains < 1 {
		return nil, fmt.Errorf("distcrawl: empty study shape (%d domains, %d weeks)", spec.Domains, spec.Weeks)
	}
	if spec.LeaseTTL <= 0 {
		spec.LeaseTTL = 10 * time.Second
	}
	if spec.Dir == "" {
		return nil, fmt.Errorf("distcrawl: RunSpec.Dir required")
	}
	if err := os.MkdirAll(spec.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("distcrawl: %w", err)
	}
	c := &Coordinator{statePath: statePath(spec.Dir)}
	if data, err := os.ReadFile(c.statePath); err == nil {
		st, err := parseState(data, spec)
		if err != nil {
			return nil, fmt.Errorf("%w (%s)", err, c.statePath)
		}
		c.st = st
		return c, nil
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("distcrawl: %w", err)
	}
	c.st = coordState{Spec: spec, NextEpoch: 1, Parts: make([]*partition, spec.Partitions)}
	for i := range c.st.Parts {
		c.st.Parts[i] = &partition{}
	}
	if err := c.persistLocked(); err != nil {
		return nil, err
	}
	return c, nil
}

// parseState decodes a persisted assignment state at spec.Dir and refuses
// one that belongs to another run or that the coordinator could not serve:
// a partition missing or null, or a frontier outside [0, spec.Weeks].
func parseState(data []byte, spec RunSpec) (coordState, error) {
	var st coordState
	if err := json.Unmarshal(data, &st); err != nil {
		return coordState{}, fmt.Errorf("distcrawl: corrupt state: %w", err)
	}
	st.Spec.Dir = spec.Dir
	if st.Spec != spec {
		return coordState{}, fmt.Errorf("distcrawl: state belongs to a different run (have %+v, want %+v)", st.Spec, spec)
	}
	if len(st.Parts) != spec.Partitions {
		return coordState{}, fmt.Errorf("distcrawl: state has %d partitions, spec %d", len(st.Parts), spec.Partitions)
	}
	for p, part := range st.Parts {
		switch {
		case part == nil:
			return coordState{}, fmt.Errorf("distcrawl: corrupt state: partition %d is null", p)
		case part.NextWeek < 0 || part.NextWeek > spec.Weeks:
			return coordState{}, fmt.Errorf("distcrawl: corrupt state: partition %d next_week %d outside [0, %d]", p, part.NextWeek, spec.Weeks)
		}
	}
	return st, nil
}

// ReadSpec returns the RunSpec a coordinator persisted under dir, the run a
// restart over dir continues; the error wraps fs.ErrNotExist when dir holds
// no state.
func ReadSpec(dir string) (RunSpec, error) {
	path := statePath(dir)
	data, err := os.ReadFile(path)
	if err != nil {
		return RunSpec{}, fmt.Errorf("distcrawl: %w", err)
	}
	var st coordState
	if err := json.Unmarshal(data, &st); err != nil {
		return RunSpec{}, fmt.Errorf("distcrawl: corrupt state: %w (%s)", err, path)
	}
	return st.Spec, nil
}

func statePath(dir string) string { return dir + string(os.PathSeparator) + StateName }

func (c *Coordinator) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// persistLocked commits the assignment state atomically. Called with mu
// held, after every mutation — the journal on disk is never more than
// one accepted transition behind the in-memory truth, and a crash
// between mutation and persist merely forgets the last grant or commit
// (the worker retries; grants re-issue under a fresh epoch).
func (c *Coordinator) persistLocked() error {
	data, err := json.MarshalIndent(c.st, "", "  ")
	if err != nil {
		return fmt.Errorf("distcrawl: %w", err)
	}
	return store.AtomicWriteFile(nil, c.statePath, append(data, '\n'))
}

// expireLocked sweeps lapsed leases. Lazy: runs at every entry point
// instead of on a timer, so expiry follows the injected clock exactly.
func (c *Coordinator) expireLocked(now time.Time) {
	for p, part := range c.st.Parts {
		if l := part.Lease; l != nil && now.After(l.Deadline) {
			c.logf("lease expired: partition %d epoch %d worker %s (deadline %s)",
				p, l.Epoch, l.Worker, l.Deadline.Format(time.RFC3339))
			part.Lease = nil
		}
	}
}

// Spec returns the run configuration.
func (c *Coordinator) Spec() RunSpec {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.Spec
}

// Lease grants the lowest idle partition to worker, or reports all-done /
// nothing-free.
func (c *Coordinator) Lease(worker string) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.expireLocked(now)
	done := true
	for p, part := range c.st.Parts {
		if part.Done {
			continue
		}
		done = false
		if part.Lease != nil {
			continue
		}
		l := &lease{
			Worker:    worker,
			Epoch:     c.st.NextEpoch,
			Deadline:  now.Add(c.st.Spec.LeaseTTL),
			StartWeek: part.NextWeek,
		}
		c.st.NextEpoch++
		part.Lease = l
		if err := c.persistLocked(); err != nil {
			// An unpersisted grant must not circulate: a restart would
			// forget it and could re-grant the partition under an epoch
			// colliding with the one we just handed out.
			part.Lease = nil
			c.st.NextEpoch--
			c.logf("lease persist failed: %v", err)
			return LeaseResponse{}
		}
		c.logf("lease granted: partition %d epoch %d -> %s (start week %d)", p, l.Epoch, worker, l.StartWeek)
		return LeaseResponse{Assigned: true, Partition: p, Epoch: l.Epoch, StartWeek: l.StartWeek, TTL: c.st.Spec.LeaseTTL}
	}
	return LeaseResponse{Done: done}
}

// Renew extends a live lease. A renewal under a lapsed or superseded
// lease is refused — the worker's epoch is fenced and it must abandon
// the assignment.
func (c *Coordinator) Renew(req RenewRequest) RenewResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.expireLocked(now)
	part, resp := c.leaseCheckLocked(req.Partition, req.Epoch, req.Worker)
	if part == nil {
		return resp
	}
	part.Lease.Deadline = now.Add(c.st.Spec.LeaseTTL)
	// A lost renewal persist is harmless (the deadline is merely older on
	// disk), so no rollback needed.
	_ = c.persistLocked()
	return RenewResponse{OK: true}
}

// leaseCheckLocked validates that (partition, epoch, worker) names the
// live lease, returning the partition or a refusal.
func (c *Coordinator) leaseCheckLocked(p int, epoch int64, worker string) (*partition, RenewResponse) {
	if p < 0 || p >= len(c.st.Parts) {
		return nil, RenewResponse{Reason: fmt.Sprintf("no partition %d", p)}
	}
	part := c.st.Parts[p]
	l := part.Lease
	switch {
	case l == nil:
		return nil, RenewResponse{Reason: "lease expired"}
	case l.Epoch != epoch:
		return nil, RenewResponse{Reason: fmt.Sprintf("fenced: lease epoch %d, yours %d", l.Epoch, epoch)}
	case l.Worker != worker:
		return nil, RenewResponse{Reason: fmt.Sprintf("lease held by %s", l.Worker)}
	}
	return part, RenewResponse{}
}

// Commit accepts one committed week of a live assignment. Accepted
// commits are the dataset: they extend the epoch's span, advance the
// partition frontier, and renew the lease. A commit under a lapsed or
// superseded epoch is fenced; a non-contiguous week is refused (the
// worker is confused); a re-commit of an already-accepted week of the
// same epoch is idempotently OK (the worker retried a lost response).
func (c *Coordinator) Commit(req CommitRequest) CommitResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	c.expireLocked(now)
	part, refusal := c.leaseCheckLocked(req.Partition, req.Epoch, req.Worker)
	if part == nil {
		c.logf("commit fenced: partition %d epoch %d week %d from %s: %s",
			req.Partition, req.Epoch, req.Week, req.Worker, refusal.Reason)
		return CommitResponse{Reason: refusal.Reason}
	}
	if req.Week < part.NextWeek {
		// Already accepted (this epoch's span covers it, or the worker is
		// replaying after a lost response): idempotent success, but only
		// for the live epoch — stale epochs were fenced above.
		return CommitResponse{OK: true, Done: part.Done}
	}
	if req.Week != part.NextWeek {
		return CommitResponse{Reason: fmt.Sprintf("non-contiguous: next week is %d, got %d", part.NextWeek, req.Week)}
	}
	// Extend (or open) the live epoch's span.
	if n := len(part.Spans); n > 0 && part.Spans[n-1].Epoch == req.Epoch {
		part.Spans[n-1].ToWeek = req.Week + 1
		part.Spans[n-1].Metrics = req.Metrics
	} else {
		part.Spans = append(part.Spans, Span{
			Partition: req.Partition, Epoch: req.Epoch,
			FromWeek: req.Week, ToWeek: req.Week + 1,
			Worker: req.Worker, Metrics: req.Metrics,
		})
	}
	part.NextWeek = req.Week + 1
	part.Lease.Deadline = now.Add(c.st.Spec.LeaseTTL)
	if part.NextWeek == c.st.Spec.Weeks {
		part.Done = true
		part.Lease = nil
	}
	if err := c.persistLocked(); err != nil {
		// Roll back: an unpersisted acceptance must not circulate, or a
		// coordinator restart would demand a week the worker believes
		// accepted.
		c.rollbackCommitLocked(part, req)
		c.logf("commit persist failed: %v", err)
		return CommitResponse{Reason: "state persist failed"}
	}
	c.logf("commit accepted: partition %d epoch %d week %d (%s)", req.Partition, req.Epoch, req.Week, req.Worker)
	return CommitResponse{OK: true, Done: part.Done}
}

// rollbackCommitLocked undoes the in-memory effects of an acceptance
// whose persist failed.
func (c *Coordinator) rollbackCommitLocked(part *partition, req CommitRequest) {
	part.NextWeek = req.Week
	part.Done = false
	if n := len(part.Spans); n > 0 && part.Spans[n-1].Epoch == req.Epoch {
		if part.Spans[n-1].FromWeek == req.Week {
			part.Spans = part.Spans[:n-1]
		} else {
			part.Spans[n-1].ToWeek = req.Week
		}
	}
	if part.Lease == nil {
		part.Lease = &lease{Worker: req.Worker, Epoch: req.Epoch, Deadline: c.now().Add(c.st.Spec.LeaseTTL)}
	}
}

// Status snapshots the coordinator's observable state.
func (c *Coordinator) Status() StatusResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.now())
	resp := StatusResponse{Done: true, Assigned: map[int]int64{}}
	var agg crawler.MetricsSnapshot
	for p, part := range c.st.Parts {
		if !part.Done {
			resp.Done = false
		}
		if part.Lease != nil {
			resp.Assigned[p] = part.Lease.Epoch
		}
		for _, sp := range part.Spans {
			resp.Spans = append(resp.Spans, sp)
			agg.Merge(sp.Metrics)
		}
	}
	resp.Metrics = agg
	return resp
}

// Done reports whether every partition is fully committed.
func (c *Coordinator) Done() bool { return c.Status().Done }

// Spans returns the accepted commit spans — the authoritative dataset
// definition the merge consumes.
func (c *Coordinator) Spans() []Span {
	return c.Status().Spans
}

// maxRequestBytes bounds one protocol request body. The largest request, a
// commit carrying the worker's metrics snapshot, is a few kilobytes; a
// longer body is refused with 400 instead of streamed into the decoder.
const maxRequestBytes = 1 << 20

// Handler returns the coordinator's HTTP protocol surface.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	post := func(path string, fn func(*json.Decoder) (any, error)) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				http.Error(w, "POST only", http.StatusMethodNotAllowed)
				return
			}
			resp, err := fn(json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes)))
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(resp)
		})
	}
	post(PathRegister, func(d *json.Decoder) (any, error) {
		var req RegisterRequest
		if err := d.Decode(&req); err != nil {
			return nil, err
		}
		c.logf("worker registered: %s", req.Worker)
		return RegisterResponse{Spec: c.Spec()}, nil
	})
	post(PathLease, func(d *json.Decoder) (any, error) {
		var req LeaseRequest
		if err := d.Decode(&req); err != nil {
			return nil, err
		}
		return c.Lease(req.Worker), nil
	})
	post(PathRenew, func(d *json.Decoder) (any, error) {
		var req RenewRequest
		if err := d.Decode(&req); err != nil {
			return nil, err
		}
		return c.Renew(req), nil
	})
	post(PathCommit, func(d *json.Decoder) (any, error) {
		var req CommitRequest
		if err := d.Decode(&req); err != nil {
			return nil, err
		}
		return c.Commit(req), nil
	})
	mux.HandleFunc(PathStatus, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(c.Status())
	})
	return mux
}
