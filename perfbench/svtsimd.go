package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"svtsim/internal/server"
)

// mixClients is the closed loop's client count: svtsimd callers
// (svtsim -submit) each wait for their result before sending again.
const mixClients = 2

// mixItem is one request of a client's plan: the first request for one
// of the client's cold requests, or a repeat of one already answered.
type mixItem struct {
	cold  int  // index into the client's cold requests
	first bool // the first request for its digest
}

// svtsimdMix serves a seeded request stream from an in-process svtsimd
// over loopback HTTP. Cold requests (fresh lb seeds, fresh netrr sizes)
// run the simulator; repeats of digests whose cold response already
// returned are served from the result cache.
type svtsimdMix struct {
	colds [mixClients][]*server.Request
	plans [mixClients][]mixItem

	srv    *server.Server
	hs     *http.Server
	served chan error
	client *server.Client
	tr     *http.Transport
}

// Per client and pass: mixColds cold requests, each followed by
// mixRepeats repeats drawn from the client's completed cold requests.
// Two repeats keep a 30 s run's few hundred cached samples in the p90
// decade of the tail rule; a p99 over thousands of cache hits mostly
// measures when the concurrent simulations' GC happened to run.
const (
	mixColds   = 6
	mixRepeats = 2
)

func newSvtsimdMix(seed int64) *svtsimdMix {
	rng := rand.New(rand.NewSource(seed))
	w := &svtsimdMix{}
	// Distinct netrr sizes across both clients, sized so that a netrr
	// request costs about what an lb request does.
	sizes := rng.Perm(60)
	seeds := map[int64]bool{}
	for c := range w.plans {
		for i := 0; i < mixColds; i++ {
			var req *server.Request
			if i%2 == 0 {
				s := 1 + rng.Int63n(1<<40)
				for seeds[s] {
					s = 1 + rng.Int63n(1<<40)
				}
				seeds[s] = true
				req = &server.Request{Kind: server.KindLB, Seed: s}
			} else {
				req = &server.Request{Kind: server.KindWorkload, Workload: "netrr", N: 200 + sizes[c*mixColds+i]}
			}
			w.colds[c] = append(w.colds[c], req)
			w.plans[c] = append(w.plans[c], mixItem{cold: i, first: true})
			for k := 0; k < mixRepeats; k++ {
				w.plans[c] = append(w.plans[c], mixItem{cold: rng.Intn(i + 1)})
			}
		}
	}
	return w
}

func (w *svtsimdMix) pinned() string { return pinnedSvtsimdMix }

// setUp starts a fresh server on a loopback listener and warms it with
// one cold request and its cached repeat.
func (w *svtsimdMix) setUp(r *runner) error {
	w.srv = server.New(server.Config{Workers: 2, SimWorkers: 1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.tr = &http.Transport{MaxIdleConnsPerHost: mixClients}
	w.client = server.NewClient("http://" + ln.Addr().String())
	w.client.HTTP = &http.Client{Transport: w.tr, Timeout: time.Minute}
	ctx := context.Background()
	if err := w.client.WaitHealthy(ctx, 10*time.Second); err != nil {
		return err
	}
	warm := &server.Request{Kind: server.KindWorkload, Workload: "cpuid", N: 100}
	cold, err := w.request(ctx, nil, 0, warm)
	if err != nil {
		return err
	}
	again, err := w.request(ctx, nil, 0, warm)
	if err != nil {
		return err
	}
	if !again.cached || !bytes.Equal(cold.body, again.body) {
		return errors.New("warm-up repeat was not served byte-identically from the cache")
	}
	return nil
}

func (w *svtsimdMix) tearDown() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if w.hs != nil {
		_ = w.hs.Shutdown(ctx) // closes the listener and idle connections
		if err := <-w.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: http server: %v\n", err)
		}
	}
	_ = w.srv.Shutdown(ctx) // every job has finished: the plan waits for each
	if w.tr != nil {
		w.tr.CloseIdleConnections()
	}
	w.srv, w.hs, w.client, w.tr = nil, nil, nil, nil
}

// clientResult is what one closed-loop client observed.
type clientResult struct {
	out   passOut
	colds [][]byte // cold bodies by cold-request index; nil if it failed
}

func (w *svtsimdMix) pass(r *runner) passOut {
	var results [mixClients]clientResult
	var wg sync.WaitGroup
	for c := range w.plans {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c] = w.runClient(r.rec, c)
		}(c)
	}
	wg.Wait()

	var out passOut
	var d digester
	for _, cr := range results {
		out.units += uint64(len(cr.out.ops))
		out.ops = append(out.ops, cr.out.ops...)
		out.attempted += cr.out.attempted
		out.failed += cr.out.failed
		for n, v := range cr.out.layers {
			out.add(n, v)
		}
		for n, vs := range cr.out.samples {
			for _, v := range vs {
				out.sample(n, v)
			}
		}
		for _, b := range cr.colds {
			d.add(string(b))
		}
	}
	st := w.srv.Cache().Stats()
	if st.Hits+st.Misses > 0 {
		out.add("server.cache_hit_ratio", float64(st.Hits)/float64(st.Hits+st.Misses))
	}
	out.add("server.cache_bytes", float64(st.Bytes))
	out.digest = d.sum()
	return out
}

// runClient runs one client's plan in a closed loop.
func (w *svtsimdMix) runClient(rec *recorder, c int) clientResult {
	cr := clientResult{colds: make([][]byte, len(w.colds[c]))}
	ctx := context.Background()
	for i, it := range w.plans[c] {
		reqID := c*1_000_000 + i + 1
		cr.out.attempted++
		req := w.colds[c][it.cold]
		t := time.Now()
		rp, err := w.request(ctx, rec, reqID, req)
		ms := msSince(t)
		if err != nil {
			cr.out.fail("client %d request %d: %v", c, i, err)
			continue
		}
		cr.out.ops = append(cr.out.ops, op{cached: rp.cached, ms: ms})
		cr.out.sample("server.submit_us", rp.submitUs)
		if it.first {
			if rp.cached {
				cr.out.fail("client %d request %d: first request for its digest was served from the cache", c, i)
			}
			cr.colds[it.cold] = rp.body
			cr.out.sample("server.queue_wait_ms", float64(rp.st.WaitMs))
			cr.out.sample("server.run_ms", float64(rp.st.RunMs))
			segs, rexmit := netstackCounts(rp.body)
			cr.out.add("netstack.segs", segs)
			cr.out.add("netstack.retransmits", rexmit)
			continue
		}
		if !rp.cached {
			cr.out.fail("client %d request %d: repeat of a completed digest missed the cache", c, i)
		}
		if cr.colds[it.cold] == nil || !bytes.Equal(rp.body, cr.colds[it.cold]) {
			cr.out.fail("client %d request %d: cached body differs from the cold body", c, i)
		}
	}
	return cr
}

// reply is one completed svtsimd round trip.
type reply struct {
	body     []byte
	st       *server.JobStatus
	cached   bool    // the submission was a cache hit
	submitUs float64 // the Submit call alone
}

// request runs one svtsimd round trip the way svtsim -submit does:
// submit, follow the progress stream unless the submission was a cache
// hit, confirm the job's state, then fetch the result body.
func (w *svtsimdMix) request(ctx context.Context, rec *recorder, reqID int, req *server.Request) (rp reply, err error) {
	root := rec.begin("request", 0, reqID)
	defer rec.end(root)
	var sub *server.SubmitResponse
	t := time.Now()
	rec.timed("server.Client.Submit", root, reqID, func() { sub, err = w.client.Submit(ctx, req) })
	rp.submitUs = float64(time.Since(t).Nanoseconds()) / 1e3
	if err != nil {
		return rp, fmt.Errorf("submit: %w", err)
	}
	rp.cached = sub.Cached
	if !sub.Cached {
		rec.timed("server.Client.Stream", root, reqID, func() { err = w.client.Stream(ctx, sub.ID, nil) })
		if err != nil {
			return rp, fmt.Errorf("stream: %w", err)
		}
	}
	rec.timed("server.Client.Job", root, reqID, func() { rp.st, err = w.client.Job(ctx, sub.ID) })
	if err != nil {
		return rp, fmt.Errorf("status: %w", err)
	}
	if rp.st.State != server.StateDone {
		return rp, fmt.Errorf("job %s %s: %s", rp.st.ID, rp.st.State, rp.st.Error)
	}
	rec.timed("server.Client.ResultBytes", root, reqID, func() { rp.body, err = w.client.ResultBytes(ctx, sub.ID) })
	if err != nil {
		return rp, fmt.Errorf("result: %w", err)
	}
	return rp, nil
}

// netstackCounts sums the transport tallies of an lb result body.
func netstackCounts(body []byte) (segs, rexmit float64) {
	var res server.Result
	if json.Unmarshal(body, &res) != nil {
		return 0, 0
	}
	for _, line := range res.Lines {
		for _, f := range strings.Fields(line) {
			k, v, ok := strings.Cut(f, "=")
			if !ok {
				continue
			}
			n, err := strconv.ParseFloat(v, 64)
			if err != nil {
				continue
			}
			switch k {
			case "segs":
				segs += n
			case "rexmit":
				rexmit += n
			}
		}
	}
	return segs, rexmit
}
