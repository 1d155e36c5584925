// Command efmd serves elementary-flux-mode enumeration over HTTP: a
// bounded job queue in front of the library drivers, a content-addressed
// result cache, NDJSON progress streaming, and cancellation.
//
// Usage:
//
//	efmd -addr 127.0.0.1:9178
//
//	curl -s localhost:9178/v1/jobs -d '{"model":"toy"}'
//	curl -s localhost:9178/v1/jobs/j000001/events
//	curl -s localhost:9178/v1/jobs/j000001/result
//	curl -s -X DELETE localhost:9178/v1/jobs/j000001
//
// SIGTERM/SIGINT drain gracefully: admissions stop (503), running jobs
// get -drain-timeout to finish, stragglers are canceled through the
// abort latch, and the process exits once every job is terminal.
//
// A fleet splits the roles: workers serve divide-and-conquer classes
// over the distrib protocol, the coordinator serves the HTTP API and
// dispatches classes onto its peers:
//
//	efmd -worker -addr 10.0.0.2:9179
//	efmd -worker -addr 10.0.0.3:9179
//	efmd -coordinator -peers 10.0.0.2:9179,10.0.0.3:9179
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"elmocomp/internal/core"
	"elmocomp/internal/distrib"
	"elmocomp/internal/jobs"
	"elmocomp/internal/server"
	"elmocomp/internal/stats"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:9178", "listen address")
		queue        = flag.Int("queue", 64, "admission queue capacity (submissions beyond it get 429)")
		concurrency  = flag.Int("concurrency", 2, "concurrently running jobs (each may use many cores)")
		cacheMB      = flag.Int("cache-mb", 64, "result cache budget in MiB (0 disables)")
		prefixMB     = flag.Int("prefix-cache-mb", 16, "on-demand prefix cache budget in MiB: a completed ranked stream serves any shorter k by truncation (0 disables)")
		keepJobs     = flag.Int("keep-jobs", 256, "terminal jobs kept addressable by ID")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for running jobs on shutdown before they are canceled")
		memBudget    = flag.String("mem-budget", "", "default per-job resident-byte budget, e.g. 64M (jobs may pass their own mem_budget_bytes)")
		maxResident  = flag.String("max-resident", "", "admission allowance over all in-flight jobs' budget reservations, e.g. 2G (429 when exceeded)")
		spillDir     = flag.String("spill-dir", "", "directory for mode-store spill files, checked at start-up (operator-only; default: the OS temp dir)")
		worker       = flag.Bool("worker", false, "serve divide-and-conquer classes over the distrib protocol on -addr instead of the HTTP API")
		coordinator  = flag.Bool("coordinator", false, "dispatch divide-and-conquer jobs onto the -peers worker fleet")
		peers        = flag.String("peers", "", "comma-separated worker addresses (requires -coordinator)")
		classTimeout = flag.Duration("class-timeout", 2*time.Minute, "coordinator's per-class worker deadline before the class is re-enqueued elsewhere")
		inflight     = flag.Int("inflight", 2, "coordinator's per-worker-link in-flight class credit (pipelines the next class while a worker computes)")
	)
	flag.Parse()

	if *worker && *coordinator {
		fatal(errors.New("-worker and -coordinator are mutually exclusive"))
	}
	if *coordinator != (*peers != "") {
		fatal(errors.New("-coordinator and -peers go together: pass both or neither"))
	}

	// Any job (or class, on a worker) may carry a memory budget, so every
	// role refuses to start without somewhere to spill.
	if err := core.CheckSpillDir(*spillDir); err != nil {
		fatal(err)
	}

	if *worker {
		runWorker(*addr, *spillDir)
		return
	}

	cacheBytes := int64(*cacheMB) << 20
	if *cacheMB <= 0 {
		cacheBytes = -1
	}
	prefixBytes := int64(*prefixMB) << 20
	if *prefixMB <= 0 {
		prefixBytes = -1
	}
	parseSize := func(name, v string) int64 {
		if v == "" {
			return 0
		}
		b, err := stats.ParseBytes(v)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		return b
	}
	var pool *distrib.Pool
	if *coordinator {
		fleet := strings.Split(*peers, ",")
		for i := range fleet {
			fleet[i] = strings.TrimSpace(fleet[i])
			if fleet[i] == "" {
				fatal(errors.New("-peers has an empty address"))
			}
		}
		pool = distrib.NewPool(fleet, distrib.PoolOptions{
			ClassTimeout: *classTimeout,
			Inflight:     *inflight,
		})
		defer pool.Close()
		log.Printf("efmd: coordinating %d worker(s): %s", len(fleet), *peers)
	}
	mgr := jobs.New(jobs.Config{
		Queue:            *queue,
		Workers:          *concurrency,
		CacheBytes:       cacheBytes,
		PrefixCacheBytes: prefixBytes,
		KeepJobs:         *keepJobs,
		DefaultMemBudget: parseSize("-mem-budget", *memBudget),
		MaxResidentBytes: parseSize("-max-resident", *maxResident),
		SpillDir:         *spillDir,
		Remote:           pool,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           server.New(mgr),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("efmd: listening on %s (queue %d, concurrency %d, cache %d MiB)",
			*addr, *queue, *concurrency, *cacheMB)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}

	log.Printf("efmd: draining (grace %v)", *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := mgr.Shutdown(drainCtx); err != nil {
		log.Printf("efmd: drain: %v", err)
	}
	// Every job is terminal now, so open event streams have ended and the
	// remaining handlers return promptly.
	httpCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := srv.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("efmd: http shutdown: %v", err)
	}
	log.Printf("efmd: stopped")
}

// runWorker serves the distrib class protocol until SIGTERM/SIGINT.
// Workers are stateless apart from a pure per-job store, so shutdown just
// closes the listener: the coordinator re-enqueues whatever was in flight.
func runWorker(addr, spillDir string) {
	w, err := distrib.NewWorker(addr, distrib.WorkerOptions{
		SpillDir: spillDir,
		Logf:     log.Printf,
	})
	if err != nil {
		fatal(err)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("efmd: worker serving classes on %s", w.Addr())
		errc <- w.Serve()
	}()
	select {
	case err := <-errc:
		fatal(err)
	case <-ctx.Done():
	}
	w.Close()
	log.Printf("efmd: worker stopped (%d classes served)", w.Counters().Served)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "efmd:", err)
	os.Exit(1)
}
