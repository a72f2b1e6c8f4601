package server

// The HTTP serving tier: bounded admission, a worker pool, singleflight
// coalescing onto the content-addressed cache, streaming progress, and
// a graceful drain. Routes (Go 1.22 method+wildcard patterns):
//
//	POST /v1/jobs                        submit a request
//	GET  /v1/jobs                        list job statuses
//	GET  /v1/jobs/{id}                   one job's status
//	GET  /v1/jobs/{id}/result            the result body (once done)
//	GET  /v1/jobs/{id}/stream            progress as NDJSON (SSE on Accept)
//	GET  /v1/jobs/{id}/artifacts/{name}  rendered obs artifacts
//	GET  /v1/cache                       cache stats
//	GET  /v1/metrics                     endpoint, cache and job-panic metrics (JSON/CSV)
//	GET  /v1/healthz                     liveness + drain state
//
// Admission control: a submit that misses the cache and coalesces with
// nothing must win a slot in a bounded queue; a full queue answers 429
// with Retry-After rather than letting latency grow without bound, and
// a draining server answers 503. Accepted jobs are never dropped by a
// drain — Shutdown stops admission, lets the workers finish the queue,
// and only cancels in-flight work when its deadline expires.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"svtsim/internal/obs"
	"svtsim/internal/uerr"
)

// Config sizes the serving tier. Zero values take the defaults below.
type Config struct {
	// Workers is the number of jobs simulated concurrently.
	Workers int
	// Queue bounds the jobs admitted but not yet running; a full queue
	// rejects submissions with 429.
	Queue int
	// JobTimeout is the per-job wall-clock budget (0 means none).
	JobTimeout time.Duration
	// CacheBudget is the result cache's byte budget (<= 0 disables it).
	CacheBudget int64
	// SimWorkers is the in-job sweep parallelism handed to
	// exp.Session.SetParallelism (0 inherits the process pool).
	SimWorkers int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.Queue <= 0 {
		c.Queue = 32
	}
	if c.CacheBudget == 0 {
		c.CacheBudget = 64 << 20
	}
	return c
}

// Server is the svtsimd serving core, independent of any net.Listener:
// tests drive Handler directly through httptest.
type Server struct {
	cfg   Config
	cache *Cache
	stats *obs.EndpointStats

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string        // job IDs in admission order
	inflight map[string]*job // digest → job not yet terminal
	draining bool
	nextID   int

	queue chan *job
	wg    sync.WaitGroup

	// panics counts jobs failed by a recovered simulation panic;
	// /v1/metrics exports it as jobs.panics.
	panics atomic.Uint64

	// runHook, when set, runs inside the worker before the simulation;
	// an error fails the job. Tests use it to block or fail jobs on cue.
	runHook func(ctx context.Context, req *Request) error
}

// New builds a server and starts its worker pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		cache:      NewCache(cfg.CacheBudget),
		stats:      obs.NewEndpointStats(),
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*job),
		inflight:   make(map[string]*job),
		queue:      make(chan *job, cfg.Queue),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Cache exposes the result cache (for stats and tests).
func (s *Server) Cache() *Cache { return s.cache }

// Shutdown drains the server: admission stops immediately (new submits
// get 503), queued and running jobs are given until ctx's deadline to
// finish, and anything still running past it is canceled. No accepted
// job is ever dropped without a terminal state.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue) // workers drain the backlog, then exit
	}
	s.mu.Unlock()

	finished := make(chan struct{})
	go func() { s.wg.Wait(); close(finished) }()
	select {
	case <-finished:
		return nil
	case <-ctx.Done():
		s.baseCancel() // hard-cancel in-flight jobs at step granularity
		<-finished
		return ctx.Err()
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	// A twin job may have populated the cache while this one queued.
	if e := s.cache.Get(j.digest); e != nil {
		j.finishCached(e)
		s.clearInflight(j)
		return
	}
	ctx := s.baseCtx
	var cancel context.CancelFunc
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(ctx, s.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	j.setRunning(cancel)

	var entry *cacheEntry
	err := func() (err error) {
		// A panicking simulation fails its job, not the daemon. Panics
		// raised by a pool worker are re-raised here by parallel.MapN,
		// and simulation panics already name the seed that replays them.
		defer func() {
			if r := recover(); r != nil {
				s.panics.Add(1)
				err = fmt.Errorf("server: simulation panicked: %v", r)
			}
		}()
		if s.runHook != nil {
			if err := s.runHook(ctx, j.req); err != nil {
				return err
			}
		}
		e, err := s.execute(ctx, j)
		entry = e
		return err
	}()

	switch {
	case err == nil:
		s.cache.Put(j.digest, entry.body, entry.artifacts)
		j.finish(StateDone, entry, "")
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.finish(StateCanceled, nil, err.Error())
	default:
		j.finish(StateFailed, nil, err.Error())
	}
	s.clearInflight(j)
}

func (s *Server) clearInflight(j *job) {
	s.mu.Lock()
	if s.inflight[j.digest] == j {
		delete(s.inflight, j.digest)
	}
	s.mu.Unlock()
}

// Handler returns the server's HTTP mux, each route wrapped with
// per-endpoint request/latency instrumentation.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	route := func(pattern, endpoint string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(endpoint, h))
	}
	route("POST /v1/jobs", "submit", s.handleSubmit)
	route("GET /v1/jobs", "list", s.handleList)
	route("GET /v1/jobs/{id}", "status", s.handleStatus)
	route("GET /v1/jobs/{id}/result", "result", s.handleResult)
	route("GET /v1/jobs/{id}/stream", "stream", s.handleStream)
	route("GET /v1/jobs/{id}/artifacts/{name}", "artifact", s.handleArtifact)
	route("GET /v1/cache", "cache", s.handleCache)
	route("GET /v1/metrics", "metrics", s.handleMetrics)
	route("GET /v1/healthz", "healthz", s.handleHealthz)
	return mux
}

// statusWriter records the status code an endpoint wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		h(sw, r)
		s.stats.Observe(endpoint, sw.status, float64(time.Since(start).Microseconds())/1000)
	})
}

// errBody is the JSON error envelope. Structured parse errors carry the
// full uerr shape so clients can point at the offending field.
type errBody struct {
	Error  string  `json:"error"`
	Detail *uerr.E `json:"detail,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintf(w, `{"error":%q}`, err.Error())
		return
	}
	w.Write(append(b, '\n'))
}

func writeErr(w http.ResponseWriter, code int, err error) {
	body := errBody{Error: err.Error()}
	var ue *uerr.E
	if errors.As(err, &ue) {
		body.Detail = ue
	}
	writeJSON(w, code, body)
}

// SubmitResponse is the POST /v1/jobs body: the job's status plus where
// to poll, stream, and fetch the result.
type SubmitResponse struct {
	JobStatus
	StatusURL string `json:"status_url"`
	StreamURL string `json:"stream_url"`
	ResultURL string `json:"result_url"`
}

func (s *Server) SubmitResponseFor(st JobStatus) SubmitResponse {
	base := "/v1/jobs/" + st.ID
	return SubmitResponse{
		JobStatus: st,
		StatusURL: base, StreamURL: base + "/stream", ResultURL: base + "/result",
	}
}

// maxSubmitBody bounds a POST /v1/jobs body. A request is a few hundred
// bytes; a body past the bound fails as malformed.
const maxSubmitBody = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("malformed request body: %w", err))
		return
	}
	if err := req.Canonicalize(); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	digest := req.Digest()

	// Cache hit: the job is born terminal; no queue slot is consumed.
	if e := s.cache.Get(digest); e != nil {
		j := s.registerJob(&req, digest, false)
		if j == nil {
			writeErr(w, http.StatusServiceUnavailable, errors.New("server is draining"))
			return
		}
		j.finishCached(e)
		writeJSON(w, http.StatusOK, s.SubmitResponseFor(j.snapshot(false)))
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		writeErr(w, http.StatusServiceUnavailable, errors.New("server is draining"))
		return
	}
	// Singleflight: an identical request already admitted (queued or
	// running) absorbs this submission.
	if twin, ok := s.inflight[digest]; ok {
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, s.SubmitResponseFor(twin.snapshot(true)))
		return
	}
	s.nextID++
	j := newJob(fmt.Sprintf("j%06d", s.nextID), &req, digest)
	select {
	case s.queue <- j:
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		s.inflight[digest] = j
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, s.SubmitResponseFor(j.snapshot(false)))
	default:
		s.nextID--
		s.mu.Unlock()
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests,
			fmt.Errorf("job queue full (%d queued)", s.cfg.Queue))
	}
}

// registerJob records a job that never enters the queue (cache hits).
// Returns nil when the server is draining.
func (s *Server) registerJob(req *Request, digest string, inflight bool) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil
	}
	s.nextID++
	j := newJob(fmt.Sprintf("j%06d", s.nextID), req, digest)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if inflight {
		s.inflight[digest] = j
	}
	return j
}

func (s *Server) jobByID(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	jobs := make([]*job, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, s.jobs[id])
	}
	s.mu.Unlock()
	out := make([]JobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.snapshot(false))
	}
	sort.Slice(out, func(i, k int) bool { return out[i].ID < out[k].ID })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot(false))
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	state, errMsg := j.terminalState()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.Write(j.entry().body)
	case StateFailed, StateCanceled:
		writeErr(w, http.StatusInternalServerError,
			fmt.Errorf("job %s: %s", state, errMsg))
	default:
		writeErr(w, http.StatusConflict,
			fmt.Errorf("job is %s; stream or poll until done", state))
	}
}

func (s *Server) handleArtifact(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	state, _ := j.terminalState()
	if state != StateDone {
		writeErr(w, http.StatusConflict, fmt.Errorf("job is %s", state))
		return
	}
	name := r.PathValue("name")
	b, ok := j.entry().artifacts[name]
	if !ok {
		writeErr(w, http.StatusNotFound, fmt.Errorf(
			"no artifact %q (submit with trace=true; available: %s, %s, %s)",
			name, obs.ArtifactTrace, obs.ArtifactMetricsCSV, obs.ArtifactMetricsJSON))
		return
	}
	if strings.HasSuffix(name, ".json") {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "text/csv")
	}
	w.Write(b)
}

// handleStream replays the job's progress log and follows it live:
// NDJSON (one event per line) by default, SSE when the client asks for
// text/event-stream. The stream ends after the terminal event.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.jobByID(r.PathValue("id"))
	if j == nil {
		writeErr(w, http.StatusNotFound, errors.New("no such job"))
		return
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flush := func() {
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}

	kick, unsubscribe := j.subscribe()
	defer unsubscribe()
	next := 0
	for {
		evs, terminal := j.eventsFrom(next)
		next += len(evs)
		for _, ev := range evs {
			b, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if sse {
				fmt.Fprintf(w, "data: %s\n\n", b)
			} else {
				fmt.Fprintf(w, "%s\n", b)
			}
		}
		if len(evs) > 0 {
			flush()
		}
		if terminal {
			// finish marks the state terminal before publishing the final
			// event; loop once more until the log is fully drained.
			if more, _ := j.eventsFrom(next); len(more) == 0 {
				return
			}
			continue
		}
		select {
		case <-kick:
		case <-j.done:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.cache.Stats())
}

// metricsRegistry snapshots the endpoint stats plus cache gauges into
// one obs registry.
func (s *Server) metricsRegistry() *obs.Registry {
	cs := s.cache.Stats()
	return s.stats.Export(func(reg *obs.Registry) {
		reg.Gauge("cache.hits").Set(float64(cs.Hits))
		reg.Gauge("cache.misses").Set(float64(cs.Misses))
		reg.Gauge("cache.evictions").Set(float64(cs.Evictions))
		reg.Gauge("cache.entries").Set(float64(cs.Entries))
		reg.Gauge("cache.bytes").Set(float64(cs.Bytes))
		reg.Gauge("cache.oldest_age_ms").Set(float64(cs.OldestAgeMs))
		reg.Counter("jobs.panics").Add(s.panics.Load())
	})
}

// MetricsText renders the current metrics as CSV — the daemon's final
// flush on drain.
func (s *Server) MetricsText() string {
	var b strings.Builder
	s.metricsRegistry().WriteCSV(&b)
	return b.String()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	reg := s.metricsRegistry()
	if r.URL.Query().Get("format") == "csv" {
		w.Header().Set("Content-Type", "text/csv")
		reg.WriteCSV(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	reg.WriteJSON(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	n := len(s.jobs)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok", "draining": draining, "jobs": n,
	})
}
