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
	"io"
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, make(chan os.Signal, 1)))
}

// run serves until a signal arrives on sigc, which it subscribes to SIGTERM
// and SIGINT once listening; it returns 1 on failure, 2 on misuse.
func run(args []string, stdout, stderr io.Writer, sigc chan os.Signal) int {
	fs := flag.NewFlagSet("nocd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	queueDepth := fs.Int("queue-depth", 16, "max queued jobs before submissions get 429")
	workers := fs.Int("workers", 2, "concurrent job workers")
	stateDir := fs.String("state", "", "directory for job records and checkpoints (empty = no persistence)")
	retryAfter := fs.Int("retry-after", 1, "Retry-After seconds advertised on 429")
	parallel := fs.Int("parallel", runtime.NumCPU(), "worker goroutines inside one experiment job")
	jobDeadline := fs.Duration("job-deadline", 0, "wall-clock budget per job, e.g. 10m (0 = unlimited)")
	cacheDir := fs.String("cache-dir", "", "directory for the content-addressed result cache (empty = caching off); resubmissions of completed jobs are served from it byte-identically")
	cacheMem := fs.Int64("cache-mem", 64, "result cache memory tier budget in MiB")
	cacheDisk := fs.Int64("cache-disk", 1024, "result cache disk tier budget in MiB")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

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
			fmt.Fprintf(stderr, "nocd: result cache disabled: %v\n", err)
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
		fmt.Fprintf(stderr, "nocd: %v\n", err)
		return 1
	}
	if rec := srv.Recovery(); rec.Resumed+rec.Requeued+rec.Quarantined > 0 || len(rec.Notes) > 0 {
		fmt.Fprintf(stdout, "nocd: recovery — %d resumed, %d requeued, %d quarantined\n",
			rec.Resumed, rec.Requeued, rec.Quarantined)
		for _, n := range rec.Notes {
			fmt.Fprintf(stdout, "nocd:   %s\n", n)
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
	fmt.Fprintf(stdout, "nocd: listening on http://%s (queue %d, %d workers", *addr, *queueDepth, *workers)
	if *stateDir != "" {
		fmt.Fprintf(stdout, ", state %s", *stateDir)
	}
	if cache != nil {
		fmt.Fprintf(stdout, ", cache %s", *cacheDir)
	}
	fmt.Fprintln(stdout, ")")
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sigc)

	select {
	case sig := <-sigc:
		fmt.Fprintf(stdout, "nocd: %v — checkpointing in-flight jobs\n", sig)
	case err := <-errc:
		fmt.Fprintf(stderr, "nocd: %v\n", err)
		srv.Shutdown()
		return 1
	}

	// Stop accepting HTTP first, then drain the job queue: running sim
	// jobs suspend at their next checkpoint boundary and persist to
	// -state for the next daemon instance.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	httpSrv.Shutdown(ctx)
	srv.Shutdown()
	fmt.Fprintln(stdout, "nocd: drained")
	return 0
}
