// Package distcrawl is the distributed crawl plane: a coordinator that
// owns the study frontier and leases domain partitions to workers over a
// small HTTP/JSON protocol, and workers that crawl each assignment through
// the collection engine (core.CrawlPartition), each writing its own
// week-granular checkpointed store generation.
//
// The partition function is store.ShardOf — the one FNV-1a hash the
// segmented store and the analysis shards already use — so a host lives
// on exactly one worker (per-host politeness survives distribution, the
// BUbiNG invariant) and the merged per-partition collector sets are
// exactly the proven shard-merge machinery: a distributed run's report is
// byte-identical to a serial core.Run of the same configuration.
//
// Failure model: leases are time-boxed and renewed by heartbeat. A
// missed renewal expires the lease and the partition is reassigned to a
// surviving worker under a new, strictly larger epoch; the new assignment
// starts at the dead worker's last *accepted* week. The coordinator is the
// one fence: it refuses a renew or commit under any but the live epoch.
// Every epoch writes its own generation directory, so a zombie whose
// lease expired keeps appending only to files nobody else will ever open.
// The dataset is defined by the coordinator's accepted commit spans; the
// merge seals each unsealed generation with store.Salvage and week-filters
// every generation down to its span, so nothing a zombie wrote past its
// lease can leak into the report.
package distcrawl

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"time"

	"clientres/internal/crawler"
	"clientres/internal/store"
	"clientres/internal/webgen"
)

// Protocol endpoints (all POST except /v1/status).
const (
	PathRegister = "/v1/register"
	PathLease    = "/v1/lease"
	PathRenew    = "/v1/renew"
	PathCommit   = "/v1/commit"
	PathStatus   = "/v1/status"
)

// RunSpec is the study configuration the coordinator hands every worker
// at registration — the single source of truth for the run's shape, so
// worker flags cannot diverge from the coordinator's.
type RunSpec struct {
	// Domains, Weeks, Seed, Bundling parameterize the synthetic population
	// (each worker regenerates the identical ecosystem from the seed and
	// serves it on its own loopback listener).
	Domains  int             `json:"domains"`
	Weeks    int             `json:"weeks"`
	Seed     int64           `json:"seed"`
	Bundling webgen.Bundling `json:"bundling,omitempty"`
	// BundleScan enables bundle-aware fingerprinting (same-site script
	// fetches), as core.Config.BundleScan.
	BundleScan bool `json:"bundle_scan,omitempty"`
	// Partitions is the domain-hash partition count — the unit of
	// assignment and failure recovery.
	Partitions int `json:"partitions"`
	// Dir is the store root shared by coordinator and workers; partition
	// p's epoch-e generation lives at GenDir(Dir, p, e).
	Dir string `json:"dir"`
	// LeaseTTL is how long an assignment stays valid without a renewal.
	LeaseTTL time.Duration `json:"lease_ttl"`
}

// Fields are the run's fields a user sets: its study's, partitions and
// lease-ttl. Dir names where the run is stored, not which run it is.
func (s RunSpec) Fields() []store.Field {
	study := store.RunID{Domains: s.Domains, Weeks: s.Weeks, Seed: s.Seed, BundleFraction: s.Bundling.Fraction, BundleScan: s.BundleScan}
	return append(study.Fields(), store.Field{Flag: "partitions", Value: s.Partitions}, store.Field{Flag: "lease-ttl", Value: s.LeaseTTL})
}

// RegisterRequest introduces a worker to the coordinator.
type RegisterRequest struct {
	Worker string `json:"worker"`
}

// RegisterResponse hands the worker the run configuration.
type RegisterResponse struct {
	Spec RunSpec `json:"spec"`
}

// LeaseRequest asks for an assignment.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse grants a partition lease (Assigned), reports that
// everything is already assigned (neither flag; poll again), or reports
// the whole run complete (Done).
type LeaseResponse struct {
	Assigned bool `json:"assigned,omitempty"`
	Done     bool `json:"done,omitempty"`
	// Partition and Epoch identify the assignment; Epoch is the fencing
	// token — strictly increasing across all grants of the run.
	Partition int   `json:"partition,omitempty"`
	Epoch     int64 `json:"epoch,omitempty"`
	// StartWeek is the first week to crawl: 0 for a fresh partition, the
	// predecessor's last accepted week + 1 after a reassignment.
	StartWeek int `json:"start_week,omitempty"`
	// TTL echoes the lease duration the worker must renew within.
	TTL time.Duration `json:"ttl,omitempty"`
}

// RenewRequest is the heartbeat extending a lease.
type RenewRequest struct {
	Worker    string `json:"worker"`
	Partition int    `json:"partition"`
	Epoch     int64  `json:"epoch"`
}

// RenewResponse reports whether the lease is still held. OK false means
// the lease expired or was superseded: the worker must abandon the
// assignment immediately (its epoch is fenced) and ask for a new lease.
type RenewResponse struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// CommitRequest reports one durably committed week of an assignment. The
// worker commits its store generation first, then sends this; a rejected
// protocol commit means the store commit is surplus the merge will
// exclude (the generation's accepted span is the authority).
type CommitRequest struct {
	Worker    string `json:"worker"`
	Partition int    `json:"partition"`
	Epoch     int64  `json:"epoch"`
	Week      int    `json:"week"`
	// Metrics is the worker's cumulative crawl snapshot for this
	// generation; the coordinator keeps the latest per span and merges
	// across spans for the run aggregate.
	Metrics crawler.MetricsSnapshot `json:"metrics"`
}

// CommitResponse accepts or fences a week commit. An accepted commit also
// renews the lease. Done reports the partition fully crawled: the commit
// was of its last week.
type CommitResponse struct {
	OK     bool   `json:"ok"`
	Done   bool   `json:"done,omitempty"`
	Reason string `json:"reason,omitempty"`
}

// Span is one accepted commit range of one generation: partition p's
// weeks [FromWeek, ToWeek) under lease epoch Epoch, stored in
// GenDir(dir, p, Epoch). The coordinator's span list is the authoritative
// definition of the distributed dataset.
type Span struct {
	Partition int   `json:"partition"`
	Epoch     int64 `json:"epoch"`
	FromWeek  int   `json:"from_week"`
	ToWeek    int   `json:"to_week"`
	// Worker is diagnostic: who held the lease.
	Worker string `json:"worker,omitempty"`
	// Metrics is the generation's latest cumulative crawl snapshot.
	Metrics crawler.MetricsSnapshot `json:"metrics"`
}

// StatusResponse is the coordinator's observable state.
type StatusResponse struct {
	Done  bool   `json:"done"`
	Spans []Span `json:"spans"`
	// Assigned maps partition -> current lease epoch (absent = idle/done).
	Assigned map[int]int64 `json:"assigned,omitempty"`
	// Metrics aggregates every span's snapshot (counters summed,
	// histograms bucket-wise) — the whole run's crawl work.
	Metrics crawler.MetricsSnapshot `json:"metrics"`
}

// GenDir is the store generation directory for one (partition, epoch):
// <root>/part-%04d/gen-%06d. A new epoch always writes a new directory,
// never a predecessor's files — that isolation, not file locking, is what
// makes a zombie's post-expiry writes harmless.
func GenDir(root string, partition int, epoch int64) string {
	return filepath.Join(root, fmt.Sprintf("part-%04d", partition), fmt.Sprintf("gen-%06d", epoch))
}

// Client is a minimal JSON-over-HTTP client for the coordinator protocol.
type Client struct {
	// BaseURL is the coordinator's root URL, e.g. "http://127.0.0.1:7700".
	BaseURL string
	// HTTP overrides the transport (nil = a client with a short timeout —
	// every protocol exchange is tiny; hanging on a dead coordinator past
	// a lease TTL would be self-defeating).
	HTTP *http.Client
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return &http.Client{Timeout: 5 * time.Second}
}

// call round-trips one protocol exchange: req as a JSON POST, or a GET when
// req is nil, and a 200 reply decoded into resp. Any other status is an
// error, whatever its body.
func (c *Client) call(path string, req, resp any) error {
	var r *http.Response
	var err error
	if req == nil {
		r, err = c.http().Get(c.BaseURL + path)
	} else {
		var body []byte
		if body, err = json.Marshal(req); err != nil {
			return fmt.Errorf("distcrawl: %w", err)
		}
		r, err = c.http().Post(c.BaseURL+path, "application/json", bytes.NewReader(body))
	}
	if err != nil {
		return fmt.Errorf("distcrawl: %s: %w", path, err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		return fmt.Errorf("distcrawl: %s: HTTP %d", path, r.StatusCode)
	}
	if err := json.NewDecoder(r.Body).Decode(resp); err != nil {
		return fmt.Errorf("distcrawl: %s: %w", path, err)
	}
	return nil
}

// Register introduces the worker and fetches the run spec.
func (c *Client) Register(worker string) (RunSpec, error) {
	var resp RegisterResponse
	err := c.call(PathRegister, RegisterRequest{Worker: worker}, &resp)
	return resp.Spec, err
}

// Lease requests an assignment.
func (c *Client) Lease(worker string) (LeaseResponse, error) {
	var resp LeaseResponse
	err := c.call(PathLease, LeaseRequest{Worker: worker}, &resp)
	return resp, err
}

// Renew heartbeats a lease.
func (c *Client) Renew(req RenewRequest) (RenewResponse, error) {
	var resp RenewResponse
	err := c.call(PathRenew, req, &resp)
	return resp, err
}

// Commit reports a durably committed week.
func (c *Client) Commit(req CommitRequest) (CommitResponse, error) {
	var resp CommitResponse
	err := c.call(PathCommit, req, &resp)
	return resp, err
}

// Status fetches the coordinator's observable state.
func (c *Client) Status() (StatusResponse, error) {
	var resp StatusResponse
	err := c.call(PathStatus, nil, &resp)
	return resp, err
}
