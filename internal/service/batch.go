package service

// The NDJSON batch protocol: POST /v1/audit/batch streams audit records
// in and verdicts out with bounded memory, which is what fleet clients
// (CI farms auditing thousands of pages) need instead of one HTTP round
// trip per page.
//
// Request body: one JSON record per line. An optional first control line
// `{"policy": …}` selects a policy for the whole stream (same forms as
// the single-audit "policy" member); every following line is
// `{"html": …, "host": …}`. URL records are rejected per-record — batch
// is for content the client already holds.
//
// Response body: one JSON line per record, in input order —
// `{"index":i,"audit":{…}}` (plus `"policy":{…}` when a policy is
// active) or `{"index":i,"error":"…"}` — then one terminal line
// `{"summary":{…}}` reconciling records/completed/errors/shed exactly.
// Lines are flushed as they complete, so a slow consumer sees results
// incrementally, not buffered to completion.
//
// Memory is bounded by a fixed in-flight window: each admitted record
// holds one worker-queue slot and one buffered reply until its line is
// written. When the shared queue is full the record sheds through the
// same accounting as the single-audit 503 path, as a per-record error
// line (the stream's status code is already on the wire).
//
// One record loop, Server.batch, serves both doors: the endpoint, and
// RunBatch, which runs it on a private server for cmd/analyze -batch — so
// the offline gate emits the online endpoint's bytes by construction.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"clientres/internal/policy"
)

// batchRecord is one NDJSON input line.
type batchRecord struct {
	HTML   string          `json:"html,omitempty"`
	Host   string          `json:"host,omitempty"`
	URL    string          `json:"url,omitempty"`
	Policy json.RawMessage `json:"policy,omitempty"`
}

// BatchSummary is the terminal NDJSON line of a batch response: an exact
// reconciliation of every input record. Records = Completed + Errors;
// Shed counts the Errors that were queue-full sheds; Overall is the
// worst per-record policy verdict ("" without a policy).
type BatchSummary struct {
	Records   int    `json:"records"`
	Completed int    `json:"completed"`
	Errors    int    `json:"errors"`
	Shed      int    `json:"shed"`
	Overall   string `json:"overall,omitempty"`
}

// maxBatchLine caps one NDJSON record (JSON framing included); it tracks
// the single-audit body cap so batch cannot smuggle bigger pages.
func (s *Server) maxBatchLine() int {
	n := int(s.cfg.MaxBodyBytes)
	return n + n/4 + 4096 // room for JSON string escaping and framing
}

// evalPolicy evaluates pol against one audit's policy document as of now,
// returning the verdict and its canonical JSON. Server.verdict is its one
// caller, which is what makes verdicts byte-identical across doors. doc
// may be a banked document that concurrent hits share, so the request
// clock goes on a shallow copy; Policy.Eval only reads the document.
func evalPolicy(pol *policy.Policy, doc *policy.Doc, now time.Time) ([]byte, policy.Verdict, error) {
	d := *doc
	d.Now = now
	v := pol.Eval(&d)
	b, err := json.Marshal(v)
	return b, v, err
}

// policyEnvelope splices untouched audit JSON and verdict JSON into
// {"audit":…,"policy":…}\n. The audit bytes stay verbatim — they may have
// been replayed from the cache, and cold vs cached responses must remain
// byte-identical.
func policyEnvelope(auditJSON, verdictJSON []byte) []byte {
	audit := bytes.TrimRight(auditJSON, "\n")
	buf := make([]byte, 0, len(audit)+len(verdictJSON)+24)
	buf = append(buf, `{"audit":`...)
	buf = append(buf, audit...)
	buf = append(buf, `,"policy":`...)
	buf = append(buf, verdictJSON...)
	buf = append(buf, '}', '\n')
	return buf
}

// formatBatchLine renders record i's success line.
func formatBatchLine(i int, auditJSON, verdictJSON []byte) []byte {
	audit := bytes.TrimRight(auditJSON, "\n")
	buf := make([]byte, 0, len(audit)+len(verdictJSON)+48)
	buf = append(buf, `{"index":`...)
	buf = strconv.AppendInt(buf, int64(i), 10)
	buf = append(buf, `,"audit":`...)
	buf = append(buf, audit...)
	if verdictJSON != nil {
		buf = append(buf, `,"policy":`...)
		buf = append(buf, verdictJSON...)
	}
	buf = append(buf, '}', '\n')
	return buf
}

// formatBatchError renders record i's error line.
func formatBatchError(i int, msg string, shed bool) []byte {
	m, _ := json.Marshal(msg)
	buf := make([]byte, 0, len(m)+48)
	buf = append(buf, `{"index":`...)
	buf = strconv.AppendInt(buf, int64(i), 10)
	buf = append(buf, `,"error":`...)
	buf = append(buf, m...)
	if shed {
		buf = append(buf, `,"shed":true`...)
	}
	buf = append(buf, '}', '\n')
	return buf
}

func formatBatchSummary(sum BatchSummary) []byte {
	b, _ := json.Marshal(struct {
		Summary BatchSummary `json:"summary"`
	}{sum})
	return append(b, '\n')
}

// worseVerdict folds per-record overall verdicts into a stream verdict.
func worseVerdict(acc, v string) string {
	rank := map[string]int{"": 0, "pass": 1, "warn": 2, "fail": 3}
	if rank[v] > rank[acc] {
		return v
	}
	return acc
}

// pendingRecord is one admitted batch record whose line has not been
// written yet. It is ready once it carries an error or its audit reply
// is in hand — a cache hit at admission, or a worker reply settled
// later; until then job holds the reply still owed.
type pendingRecord struct {
	index int
	err   string // non-empty: the record answers with this error line
	shed  bool   // err is a queue-full shed
	resp  audited
	job   *auditJob
	key   cacheKey
	now   time.Time
}

func (s *Server) handleAuditBatch(w http.ResponseWriter, r *http.Request) {
	// One token admits the stream; records inside it are governed by
	// queue backpressure, not the per-request bucket (a 10k-record batch
	// is one client action, not 10k).
	if !s.admit(w, r) {
		return
	}
	pol, isServerPol, err := s.resolvePolicy(nil, r.URL.Query().Get("policy"))
	if err != nil {
		http.Error(w, "bad policy: "+err.Error(), http.StatusBadRequest)
		return
	}

	s.met.batchStreams.Inc()
	s.met.batchActive.Inc()
	defer s.met.batchActive.Add(-1)

	// NDJSON batch is a full-duplex exchange: result lines go out while
	// the client is still sending records. HTTP/1.x handlers are
	// half-duplex by default — the first response write blocks to consume
	// the rest of the request body, deadlocking against a client that
	// waits for results before sending more. The error is ignorable:
	// writers that don't support the controller (test recorders) have no
	// duplex problem to begin with.
	_ = http.NewResponseController(w).EnableFullDuplex()

	w.Header().Set("Content-Type", "application/x-ndjson")
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	_, _ = s.batch(r.Body, w, flush, pol, isServerPol)
}

// RunBatch is the offline batch gate: the batch endpoint's record loop on
// a private server whose server policy is pol and whose clock stands at
// now — no listener, no network. It answers exactly as cmd/serve -policy
// answers POST /v1/audit/batch?policy=server: pol may be nil (audits
// only), and a leading {"policy": …} control line overrides it, "server"
// selecting pol itself. cmd/analyze -batch is this function behind flags.
func RunBatch(r io.Reader, w io.Writer, pol *policy.Policy, now time.Time) (BatchSummary, error) {
	s := New(Config{Policy: pol, Now: func() time.Time { return now }})
	defer s.Close()
	bw := bufio.NewWriter(w)
	sum, err := s.batch(r, bw, func() {}, pol, pol != nil)
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	return sum, err
}

// batch is the one NDJSON record loop: it reads records from in, audits
// them on the worker pool, and writes one line per record to out in input
// order, calling flush after each, then the summary line. pol (isServerPol
// when it is the preloaded one) gates every record unless a control line
// replaces it. The error is the first write error (the client has left and
// no summary follows), the body's read error, or a bad control-line
// policy; the last two after their error line.
func (s *Server) batch(in io.Reader, out io.Writer, flush func(), pol *policy.Policy, isServerPol bool) (BatchSummary, error) {
	// Input lines arrive through a reader goroutine so the record loop can
	// select between "next input line" and "front-of-window audit done".
	// That select is what makes output genuinely record-by-record: a
	// completed audit streams out even while the client is still composing
	// its next record, instead of buffering until the window fills or the
	// body ends.
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 64<<10), s.maxBatchLine())
	lines := make(chan []byte)
	scanErr := make(chan error, 1)
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		defer close(lines)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			cp := append([]byte(nil), line...) // the Scanner reuses its buffer
			select {
			case lines <- cp:
			case <-stop:
				return
			}
		}
		scanErr <- sc.Err()
	}()

	// The in-flight window: admitted records not yet written. Its length
	// bounds both queue slots this stream holds and buffered replies in
	// memory; emission order is input order regardless of completion
	// order.
	window := make([]*pendingRecord, 0, s.batchWindow())
	var sum BatchSummary
	var gone error // the first write error: the client has left

	write := func(line []byte) {
		if _, err := out.Write(line); err != nil {
			gone = err
			return
		}
		flush()
	}
	settle := func(p *pendingRecord, res audited) {
		p.resp, p.job = res, nil
		s.bank(p.key, res)
	}
	// emit takes the front record out of the window and writes its line,
	// first waiting for its reply if still owed. Once the client has left
	// it only settles, so every admitted audit is still banked.
	emit := func() {
		p := window[0]
		window = window[1:]
		if p.job != nil {
			settle(p, <-p.job.reply)
		}
		if gone != nil {
			return
		}
		var verdictJSON []byte
		if p.err == "" && pol != nil {
			vj, overall, err := s.verdict(pol, isServerPol, p.resp.doc, p.now)
			if err != nil {
				p.err = "policy evaluation failed"
			} else {
				verdictJSON = vj
				sum.Overall = worseVerdict(sum.Overall, overall)
			}
		}
		if p.err != "" {
			sum.Errors++
			s.met.batchErrors.Inc()
			if p.shed {
				sum.Shed++
			}
			write(formatBatchError(p.index, p.err, p.shed))
			return
		}
		sum.Completed++
		s.met.batchCompleted.Inc()
		write(formatBatchLine(p.index, p.resp.body, verdictJSON))
	}

	index := 0
	inputOpen := true
	for gone == nil {
		// Stream out every front-of-window record whose result is in hand.
		if len(window) > 0 && window[0].job == nil {
			emit()
			continue
		}
		if !inputOpen && len(window) == 0 {
			break
		}

		// Wait for whichever happens first: the front job completing (its
		// line can go out) or the next input line (more work to admit).
		// A nil channel blocks forever, which is how each case is disabled.
		var frontReply chan audited
		if len(window) > 0 {
			frontReply = window[0].job.reply
		}
		next := lines
		if !inputOpen || len(window) >= s.batchWindow() {
			next = nil
		}
		var line []byte
		select {
		case res := <-frontReply:
			settle(window[0], res)
			continue
		case l, ok := <-next:
			if !ok {
				inputOpen = false
				continue
			}
			line = l
		}

		var rec batchRecord
		perr := json.Unmarshal(line, &rec)

		// An optional leading control line sets the stream policy.
		if index == 0 && perr == nil && !noPolicy(rec.Policy) && rec.HTML == "" && rec.URL == "" {
			var err error
			if pol, isServerPol, err = s.resolvePolicy(rec.Policy, ""); err != nil {
				// The stream cannot proceed without the policy it asked
				// for; report and stop before any record line.
				write(formatBatchError(0, "bad policy: "+err.Error(), false))
				return sum, fmt.Errorf("bad policy: %w", err)
			}
			continue
		}

		p := &pendingRecord{index: index}
		index++
		sum.Records++
		s.met.batchRecords.Inc()
		switch {
		case perr != nil:
			p.err = "invalid JSON record"
		case rec.URL != "":
			p.err = "url records are not supported in batch audits"
		case rec.HTML == "":
			p.err = `"html" is required`
		default:
			host := rec.Host
			if host == "" {
				host = defaultHost
			}
			p.now = s.cfg.Now()
			p.key = cacheKey{hash: fnv1a64(rec.HTML), n: len(rec.HTML), host: host}
			if res, ok := s.cached(p.key); ok {
				p.resp = res
				break
			}
			p.job = &auditJob{html: rec.HTML, host: host, now: p.now, reply: make(chan audited, 1)}
			// Backpressure: make room in our own window first, then shed
			// through the same accounting as the single-audit 503 path if
			// the shared queue is still full.
			submitted := s.submit(p.job)
			for !submitted && len(window) > 0 {
				emit()
				submitted = s.submit(p.job)
			}
			if !submitted {
				p.job = nil
				p.err, p.shed = "audit queue full", true
				s.met.shedQueue.Inc()
				s.met.batchShedRecords.Inc()
			}
		}
		window = append(window, p)
	}

	// The loop only leaves records behind when the client has left: they
	// are still settled, so their replies are banked in the cache rather
	// than leaked.
	for len(window) > 0 {
		emit()
	}
	if gone != nil {
		return sum, gone
	}
	if err := <-scanErr; err != nil {
		msg := "error reading batch body"
		if errors.Is(err, bufio.ErrTooLong) {
			msg = fmt.Sprintf("batch record exceeds %d bytes", s.maxBatchLine())
		}
		write(formatBatchError(index, msg, false))
		return sum, err
	}
	write(formatBatchSummary(sum))
	return sum, gone
}

// batchWindow bounds in-flight records per stream: enough to keep the
// worker pool busy, small enough that one stream cannot monopolize the
// shared queue.
func (s *Server) batchWindow() int {
	n := s.cfg.Workers * 2
	if n > s.cfg.QueueDepth {
		n = s.cfg.QueueDepth
	}
	if n < 1 {
		n = 1
	}
	if n > 32 {
		n = 32
	}
	return n
}
