package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"time"

	"repro/internal/rescache"
)

// Async jobs. POST /v1/jobs validates the envelope synchronously (bad
// requests fail with 400 immediately, never as a failed job), claims an
// admission slot — jobs share the same CAS admission bound as sync traffic,
// so a fleet of async submissions cannot outrun the worker pool — and
// returns 202 with a job id. The optimization runs on its own goroutine
// under the job's deadline, detached from the submitting connection.
// GET /v1/jobs/{id} polls; DELETE cancels. The table is bounded: MaxJobs
// entries, finished jobs evicted JobTTL after completion (swept lazily), a
// full table sheds submissions with 429/queue_full.
//
// Because a job holds its admission slot from submission to completion, the
// drain path's pending==0 condition covers running jobs: SIGTERM waits for
// them like any in-flight request.

// JobStatus enumerates the lifecycle states of an async job.
type JobStatus string

const (
	JobQueued   JobStatus = "queued"
	JobRunning  JobStatus = "running"
	JobDone     JobStatus = "done"
	JobFailed   JobStatus = "failed"
	JobCanceled JobStatus = "canceled"
)

type job struct {
	id     string
	cancel context.CancelFunc

	mu        sync.Mutex
	status    JobStatus
	created   time.Time
	finished  time.Time // zero while queued/running
	outcome   rescache.Outcome
	result    *rescache.Result
	wantJSON  bool
	failErr   *ErrorBody
	failState int // HTTP status of the failure
}

// JobView is the wire form of a job in submission and poll responses.
type JobView struct {
	ID     string    `json:"id"`
	Status JobStatus `json:"status"`
	// Cache reports how the result was produced (miss, hit, coalesced);
	// only present once done.
	Cache string `json:"cache,omitempty"`
	// CreatedUnixMS / FinishedUnixMS timestamp the lifecycle.
	CreatedUnixMS  int64 `json:"created_unix_ms"`
	FinishedUnixMS int64 `json:"finished_unix_ms,omitempty"`
}

// JobResponse is the body of POST /v1/jobs, GET /v1/jobs/{id}, and
// DELETE /v1/jobs/{id}. Result carries the exact bytes a sync request for
// the same envelope would have returned; Error carries the failure of a
// failed job.
type JobResponse struct {
	Job    JobView         `json:"job"`
	Result json.RawMessage `json:"result,omitempty"`
	Error  *ErrorBody      `json:"error,omitempty"`
}

type jobTable struct {
	mu      sync.Mutex
	m       map[string]*job
	max     int
	ttl     time.Duration
	evicted func() // metrics hook, set once at server construction
}

func newJobTable(max int, ttl time.Duration) *jobTable {
	return &jobTable{m: map[string]*job{}, max: max, ttl: ttl}
}

// sweep drops finished jobs past their TTL. Callers hold t.mu.
func (t *jobTable) sweepLocked(now time.Time) {
	for id, j := range t.m {
		j.mu.Lock()
		expired := !j.finished.IsZero() && now.Sub(j.finished) > t.ttl
		j.mu.Unlock()
		if expired {
			delete(t.m, id)
			if t.evicted != nil {
				t.evicted()
			}
		}
	}
}

// add registers a new job, or reports table saturation.
func (t *jobTable) add(j *job) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked(time.Now())
	if len(t.m) >= t.max {
		return false
	}
	t.m[j.id] = j
	return true
}

func (t *jobTable) get(id string) *job {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sweepLocked(time.Now())
	return t.m[id]
}

func (t *jobTable) size() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.m)
}

func (t *jobTable) active() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, j := range t.m {
		j.mu.Lock()
		if j.status == JobQueued || j.status == JobRunning {
			n++
		}
		j.mu.Unlock()
	}
	return n
}

func newJobID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("server: crypto/rand unavailable: " + err.Error())
	}
	return hex.EncodeToString(b[:])
}

func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:            j.id,
		Status:        j.status,
		CreatedUnixMS: j.created.UnixMilli(),
	}
	if !j.finished.IsZero() {
		v.FinishedUnixMS = j.finished.UnixMilli()
	}
	if j.status == JobDone {
		v.Cache = j.outcome.String()
	}
	return v
}

// handleJobSubmit is POST /v1/jobs.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.failf(w, http.StatusServiceUnavailable, CodeDraining, "", "server is draining")
		return
	}
	body, apiErr := s.readBody(w, r)
	if apiErr != nil {
		s.fail(w, apiErr)
		return
	}
	dr, apiErr := s.decodeEnvelope(body)
	if apiErr != nil {
		s.fail(w, apiErr)
		return
	}

	// Claim the admission slot now, while the submitter is still on the
	// line: saturation is a synchronous 429, not a failed job discovered by
	// polling.
	if !s.admit() {
		s.met.queueRejects.Inc()
		s.failf(w, http.StatusTooManyRequests, CodeQueueFull, "",
			"queue full (%d running, %d queued)", s.cfg.Workers, s.cfg.QueueDepth)
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), dr.opts.deadline(s.cfg))
	j := &job{
		id:       newJobID(),
		cancel:   cancel,
		status:   JobQueued,
		created:  time.Now(),
		wantJSON: dr.wantNetJSON,
	}
	if !s.jobs.add(j) {
		s.pending.Add(-1)
		cancel()
		s.failf(w, http.StatusTooManyRequests, CodeQueueFull, "jobs",
			"job table full (%d jobs)", s.cfg.MaxJobs)
		return
	}
	s.met.jobsSubmitted.Inc()

	go s.runJob(ctx, j, dr)

	w.Header().Set("Location", "/v1/jobs/"+j.id)
	s.markDeprecated(w, dr)
	w.Header().Set("Content-Type", "application/json")
	s.met.requests.With("202").Inc()
	w.WriteHeader(http.StatusAccepted)
	_ = json.NewEncoder(w).Encode(JobResponse{Job: j.view()})
}

// runJob executes one admitted job to completion on its own goroutine.
func (s *Server) runJob(ctx context.Context, j *job, dr *decodedRequest) {
	defer s.pending.Add(-1)
	defer j.cancel()
	defer func() {
		if rec := recover(); rec != nil {
			s.met.panics.Inc()
			s.logf("server: job %s aborted by panic: %v", j.id, rec)
			j.finish(JobFailed, 0, nil, &ErrorBody{Code: CodeInternal, Message: "internal error: request aborted"}, http.StatusInternalServerError)
			s.met.jobsCompleted.With(string(JobFailed)).Inc()
		}
	}()

	j.mu.Lock()
	j.status = JobRunning
	j.mu.Unlock()

	res, out, err := s.optimizeOne(ctx, dr, true)
	switch {
	case err == nil:
		j.finish(JobDone, out, res, nil, 0)
		s.met.jobsCompleted.With(string(JobDone)).Inc()
	default:
		var ae *apiError
		status := JobFailed
		switch {
		case errors.As(err, &ae):
			j.finish(JobFailed, 0, nil, &ae.body, ae.status)
		case errors.Is(err, context.DeadlineExceeded):
			s.met.deadlineExpiry.Inc()
			j.finish(JobFailed, 0, nil,
				&ErrorBody{Code: CodeDeadlineExceeded, Message: "deadline exceeded"}, http.StatusGatewayTimeout)
		default: // canceled via DELETE
			status = JobCanceled
			j.finish(JobCanceled, 0, nil, nil, 0)
		}
		s.met.jobsCompleted.With(string(status)).Inc()
	}
}

func (j *job) finish(st JobStatus, out rescache.Outcome, res *rescache.Result, e *ErrorBody, httpStatus int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = st
	j.finished = time.Now()
	j.outcome = out
	j.result = res
	j.failErr = e
	j.failState = httpStatus
}

// handleJobGet is GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		s.failf(w, http.StatusNotFound, CodeJobNotFound, "", "no job %q (unknown, expired, or evicted)", r.PathValue("id"))
		return
	}
	resp := JobResponse{Job: j.view()}
	j.mu.Lock()
	if j.status == JobDone {
		resp.Result = renderJSONBody(j.result, j.wantJSON)
	}
	if j.failErr != nil {
		resp.Error = j.failErr
	}
	j.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	s.met.requests.With("200").Inc()
	_ = json.NewEncoder(w).Encode(resp)
}

// handleJobCancel is DELETE /v1/jobs/{id}: cancel a queued or running job.
// Canceling a finished job is a no-op; the response reports the state the
// job ended in either way.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		s.failf(w, http.StatusNotFound, CodeJobNotFound, "", "no job %q (unknown, expired, or evicted)", r.PathValue("id"))
		return
	}
	j.cancel()
	w.Header().Set("Content-Type", "application/json")
	s.met.requests.With("200").Inc()
	_ = json.NewEncoder(w).Encode(JobResponse{Job: j.view()})
}
