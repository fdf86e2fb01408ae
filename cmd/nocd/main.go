// Command nocd serves the simulation suite as a job service: POST a job
// spec, poll its status, stream its results — the same code paths as
// cmd/experiments, so service results are byte-identical to CLI results.
// SIGTERM/SIGINT shut down gracefully: running simulations checkpoint,
// and a restarted daemon with the same -state directory resumes them.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"chipletnoc/internal/artifact"
	"chipletnoc/internal/experiments"
	"chipletnoc/internal/server"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	queueDepth := flag.Int("queue-depth", 16, "max queued jobs before submissions get 429")
	workers := flag.Int("workers", 2, "concurrent job workers")
	stateDir := flag.String("state", "", "directory for job records and checkpoints (empty = no persistence)")
	retryAfter := flag.Int("retry-after", 1, "Retry-After seconds advertised on 429")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker goroutines inside one experiment job")
	flag.String("partitions", "", "accepted and ignored: the partitioned tick engine it sized was deleted, every job runs the one engine")
	flag.Int("lookahead", 0, "accepted and ignored, like -partitions")
	jobDeadline := flag.Duration("job-deadline", 0, "wall-clock budget per job, e.g. 10m (0 = unlimited)")
	cacheDir := flag.String("cache-dir", "", "directory for the content-addressed result cache (empty = caching off); resubmissions of completed jobs are served from it byte-identically")
	cacheMem := flag.Int64("cache-mem", 64, "result cache memory tier budget in MiB")
	cacheDisk := flag.Int64("cache-disk", 1024, "result cache disk tier budget in MiB")
	flag.Parse()

	experiments.SetParallelism(*parallel)

	// The cache is strictly opt-in: a daemon without -cache-dir behaves
	// exactly as before. A broken cache directory degrades to no caching
	// rather than refusing to serve.
	var cache *artifact.Store
	if *cacheDir != "" {
		var err error
		cache, err = artifact.Open(artifact.Config{
			Dir:       *cacheDir,
			MemBytes:  *cacheMem << 20,
			DiskBytes: *cacheDisk << 20,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "nocd: result cache disabled: %v\n", err)
			cache = nil
		}
	}

	srv, err := server.New(server.Config{
		QueueDepth:        *queueDepth,
		Workers:           *workers,
		StateDir:          *stateDir,
		RetryAfterSeconds: *retryAfter,
		JobDeadline:       *jobDeadline,
		Cache:             cache,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "nocd: %v\n", err)
		os.Exit(1)
	}
	if rec := srv.Recovery(); rec.Resumed+rec.Requeued+rec.Quarantined > 0 || len(rec.Notes) > 0 {
		fmt.Printf("nocd: recovery — %d resumed, %d requeued, %d quarantined\n",
			rec.Resumed, rec.Requeued, rec.Quarantined)
		for _, n := range rec.Notes {
			fmt.Printf("nocd:   %s\n", n)
		}
	}

	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// A slowloris client must not be able to hold a connection (and
		// its goroutine) forever: bound every phase of the exchange.
		// WriteTimeout is generous because full-scale experiment results
		// stream multi-megabyte CSVs to slow clients.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	fmt.Printf("nocd: listening on http://%s (queue %d, %d workers", *addr, *queueDepth, *workers)
	if *stateDir != "" {
		fmt.Printf(", state %s", *stateDir)
	}
	if cache != nil {
		fmt.Printf(", cache %s", *cacheDir)
	}
	fmt.Println(")")

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	select {
	case sig := <-sigc:
		fmt.Printf("nocd: %v — checkpointing in-flight jobs\n", sig)
	case err := <-errc:
		fmt.Fprintf(os.Stderr, "nocd: %v\n", err)
		os.Exit(1)
	}

	// Stop accepting HTTP first, then drain the job queue: running sim
	// jobs suspend at their next checkpoint boundary and persist to
	// -state for the next daemon instance.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	srv.Shutdown()
	fmt.Println("nocd: drained")
}
