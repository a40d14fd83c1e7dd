// Command modand runs the long-lived analysis server: an HTTP/JSON
// daemon over the sideeffect pipeline with a content-addressed result
// cache and incremental edit sessions.
//
// Usage:
//
//	modand [flags]
//
// Endpoints (see internal/server):
//
//	POST   /analyze            analyze one source (cached, singleflight)
//	POST   /batch              analyze many sources on the worker pool
//	POST   /lint               lint one source (cached like /analyze)
//	POST   /session            open an incremental session
//	GET    /session/{id}       session state and report
//	POST   /session/{id}/edit  apply an edit (incremental or full)
//	POST   /session/{id}/lint  lint a session's current analysis
//	DELETE /session/{id}       close a session
//	GET    /index/status       watch-mode indexer summary
//	GET    /index/files        watch-mode per-file table
//	GET    /metrics            Prometheus text exposition
//	GET    /healthz            liveness probe
//	GET    /debug/pprof/       profiling; /debug/vars for expvar
//
// With -watch the daemon also runs the persistent indexer over a
// directory tree, keeping analyses warm across edits; with -state-dir
// it checkpoints its warm state (cache entries, sessions, index) to
// disk and restores it on the next start, so a restarted daemon
// answers its first queries for unchanged sources from the persisted
// snapshot.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: it stops the
// watcher, stops accepting connections, drains in-flight requests for
// up to -drain, then flushes a final checkpoint and exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"sideeffect"
	"sideeffect/internal/indexer"
	"sideeffect/internal/server"
	"sideeffect/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, nil, nil))
}

// run is the testable entry point. If ready is non-nil it receives the
// bound listen address once the server is accepting connections; if
// shutdown is non-nil, a value on it triggers the same graceful drain
// as SIGINT/SIGTERM. stdout and stderr must be safe for concurrent use
// (os.Stdout and os.Stderr are): the watcher's log lines are written
// from the indexer's goroutine while run writes its own.
func run(args []string, stdout, stderr io.Writer, ready chan<- string, shutdown <-chan struct{}) int {
	fs := flag.NewFlagSet("modand", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:7820", "listen address")
		jobs      = fs.Int("j", 0, "analysis worker-pool size (0 = GOMAXPROCS)")
		cacheN    = fs.Int("cache", 256, "max cached analysis results")
		maxBytes  = fs.Int64("max-request-bytes", 1<<20, "request body size limit")
		timeout   = fs.Duration("timeout", 30*time.Second, "per-request analysis budget")
		sessions  = fs.Int("sessions", 64, "max concurrently open sessions")
		batchN    = fs.Int("batch", 256, "max sources per /batch request")
		drain     = fs.Duration("drain", 10*time.Second, "graceful-shutdown drain budget")
		inflight  = fs.Int("max-inflight", 32, "max concurrently computing requests (-1 = unlimited)")
		queue     = fs.Int("max-queue", 64, "max requests waiting for an admission slot before shedding with 429 (-1 = unlimited)")
		faultRate = fs.Float64("fault-rate", 0, "chaos-testing fault probability per fault point (0 = off)")
		faultSeed = fs.Int64("fault-seed", 1, "fault-injection seed; same seed + request sequence replays the same faults")
		watch     = fs.String("watch", "", "directory tree to index and keep warm (empty = no watcher)")
		stateDir  = fs.String("state-dir", "", "directory for persisted checkpoints (empty = no persistence)")
		langs     = fs.String("lang", "minipl,go", "comma-separated frontends the watcher indexes (minipl, go)")
		poll      = fs.Duration("poll", 250*time.Millisecond, "watcher scan interval")
		debounce  = fs.Duration("debounce", 500*time.Millisecond, "quiet window after the last change before a batch is processed")
		ckptEvery = fs.Duration("checkpoint", 30*time.Second, "periodic checkpoint interval (requires -state-dir)")
		goModule  = fs.Bool("go-module", false, "index the watched tree's .go files as one whole module (cross-package calls resolved, closed interfaces devirtualized) instead of per-file packages")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: modand [flags]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return 2
	}

	// Bind before starting anything else, so a busy port fails fast.
	// Serve closes ln; the deferred Close covers the error paths before
	// the hand-off.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "modand: %v\n", err)
		return 1
	}
	defer ln.Close()

	srv := server.New(server.Config{
		Workers:         *jobs,
		CacheEntries:    *cacheN,
		MaxRequestBytes: *maxBytes,
		Timeout:         *timeout,
		MaxSessions:     *sessions,
		MaxBatchSources: *batchN,
		MaxInFlight:     *inflight,
		MaxQueue:        *queue,
		FaultRate:       *faultRate,
		FaultSeed:       *faultSeed,
	})
	if *faultRate > 0 {
		fmt.Fprintf(stdout, "modand: CHAOS MODE: injecting faults at rate %g (seed %d)\n", *faultRate, *faultSeed)
	}

	// Persistence: restore the previous checkpoint before serving, so
	// the first request for an unchanged source is a warm hit. A
	// corrupt checkpoint degrades to a clean cold start — the store
	// never yields a partial or wrong answer.
	var (
		st       *store.Store
		restored *store.Checkpoint
	)
	if *stateDir != "" {
		st, err = store.Open(*stateDir)
		if err != nil {
			fmt.Fprintf(stderr, "modand: state: %v\n", err)
			return 1
		}
		cp, err := st.Load()
		switch {
		case errors.Is(err, store.ErrCorrupt):
			fmt.Fprintf(stdout, "modand: state: %v; starting cold\n", err)
		case err != nil:
			fmt.Fprintf(stderr, "modand: state: %v\n", err)
			return 1
		case cp != nil:
			entries, sess := srv.ImportCheckpoint(cp)
			fmt.Fprintf(stdout, "modand: state: restored %d cache entries, %d sessions\n", entries, sess)
			restored = cp
		}
	}

	// Watch mode: index the tree and publish results into the server's
	// cache. Restored index state lets the first scan skip unchanged
	// files entirely.
	var ix *indexer.Indexer
	if *watch != "" {
		root, err := filepath.Abs(*watch)
		if err != nil {
			fmt.Fprintf(stderr, "modand: watch: %v\n", err)
			return 1
		}
		ix = indexer.New(indexer.Config{
			Root:        root,
			Langs:       strings.Split(*langs, ","),
			Poll:        *poll,
			Debounce:    *debounce,
			MaxSessions: *sessions,
			GoModule:    *goModule,
			Opts:        sideeffect.Options{Workers: *jobs},
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stdout, format+"\n", args...)
			},
		}, srv)
		if restored != nil && restored.Index != nil {
			if n := ix.RestoreState(restored.Index); n > 0 {
				fmt.Fprintf(stdout, "modand: index: primed %d files from state\n", n)
			}
		}
		srv.AttachIndex(ix)
		ix.Start()
		fmt.Fprintf(stdout, "modand: watching %s\n", root)
	}

	// saveCheckpoint flushes the warm state. Periodic saves are quiet
	// (errors only); the final SIGTERM-drain flush logs size and
	// duration so operators can see the persistence cost.
	saveCheckpoint := func(verbose bool) {
		if st == nil {
			return
		}
		cp := srv.ExportCheckpoint()
		if ix != nil {
			cp.Index = ix.ExportState()
		}
		stats, err := st.Save(cp)
		if err != nil {
			fmt.Fprintf(stderr, "modand: checkpoint: %v\n", err)
			return
		}
		srv.NoteCheckpoint(stats)
		if verbose {
			fmt.Fprintf(stdout, "modand: checkpoint: %d entries, %d sessions, %d bytes in %s\n",
				stats.Entries, stats.Sessions, stats.Bytes, stats.Duration.Round(time.Microsecond))
		}
	}
	ckptStop := make(chan struct{})
	ckptDone := make(chan struct{})
	if st != nil && *ckptEvery > 0 {
		go func() {
			defer close(ckptDone)
			t := time.NewTicker(*ckptEvery)
			defer t.Stop()
			for {
				select {
				case <-ckptStop:
					return
				case <-t.C:
					saveCheckpoint(false)
				}
			}
		}()
	} else {
		close(ckptDone)
	}

	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}

	fmt.Fprintf(stdout, "modand: listening on http://%s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	select {
	case err := <-serveErr:
		fmt.Fprintf(stderr, "modand: %v\n", err)
		return 1
	case s := <-sig:
		fmt.Fprintf(stdout, "modand: %v, draining for up to %v\n", s, *drain)
	case <-shutdown:
		fmt.Fprintf(stdout, "modand: shutdown requested, draining for up to %v\n", *drain)
	}

	// Shutdown order: stop the watcher first (it absorbs any pending
	// batch, so the final checkpoint reflects disk), stop periodic
	// checkpoints (the final flush must not race one), drain HTTP,
	// then flush the final checkpoint.
	if ix != nil {
		ix.Stop()
	}
	close(ckptStop)
	<-ckptDone

	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(stderr, "modand: drain incomplete: %v\n", err)
		saveCheckpoint(true)
		return 1
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(stderr, "modand: %v\n", err)
		return 1
	}
	saveCheckpoint(true)
	fmt.Fprintln(stdout, "modand: bye")
	return 0
}
