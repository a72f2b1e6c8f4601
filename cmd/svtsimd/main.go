// Command svtsimd is svtsim's simulation-as-a-service daemon: a
// long-running HTTP/JSON server wrapping the experiment Session behind
// a bounded job queue, a worker pool, and a content-addressed result
// cache. See DESIGN.md §15 and the README quickstart.
//
//	svtsimd -listen 127.0.0.1:8080 -workers 4 -cache-mb 64
//
// SIGTERM/SIGINT drains gracefully: admission stops (503), accepted
// jobs finish (or are canceled at -drain-timeout), and the final
// endpoint/cache metrics are flushed to stderr before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"svtsim/internal/server"
)

// Connection timeouts. A client that stalls sending its headers, or
// leaves a keep-alive connection idle, loses the connection instead of
// pinning it. There is no write timeout: /stream responses stay open
// for as long as the job runs.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8080", "address to serve the /v1 API on")
	workers := flag.Int("workers", 2, "jobs simulated concurrently")
	queue := flag.Int("queue", 32, "max jobs admitted but not yet running (full queue answers 429)")
	timeout := flag.Duration("timeout", 0, "per-job wall-clock budget (0 = none), e.g. 2m")
	cacheMB := flag.Int64("cache-mb", 64, "result cache budget in MiB (0 disables caching)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
	simWorkers := flag.Int("sim-workers", 0, "in-job sweep parallelism (0 = all cores)")
	flag.Parse()

	srv := server.New(server.Config{
		Workers:     *workers,
		Queue:       *queue,
		JobTimeout:  *timeout,
		CacheBudget: *cacheMB << 20,
		SimWorkers:  *simWorkers,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svtsimd:", err)
		os.Exit(1)
	}
	hs := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
	}
	fmt.Fprintf(os.Stderr, "svtsimd: serving on http://%s (workers=%d queue=%d cache=%dMiB)\n",
		ln.Addr(), *workers, *queue, *cacheMB)

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "svtsimd: %v, draining (timeout %v)\n", s, *drainTimeout)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "svtsimd:", err)
		os.Exit(1)
	}

	// Drain: stop admitting, finish (or cancel) accepted jobs, stop the
	// listener, then flush metrics.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "svtsimd: drain deadline hit, in-flight jobs canceled: %v\n", err)
	}
	if err := hs.Shutdown(context.Background()); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "svtsimd:", err)
	}
	fmt.Fprintln(os.Stderr, "svtsimd: final metrics")
	fmt.Fprint(os.Stderr, srv.MetricsText())
}
