// Command nocdeployd runs the deployment service: an HTTP daemon exposing
// the solver stack behind a bounded job queue and a content-addressed
// solution cache (see internal/service).
//
// Usage:
//
//	nocdeployd [-addr HOST:PORT] [-addr-file FILE] [-workers N] [-queue N]
//	           [-cache-size N] [-max-jobs N] [-default-timeout D]
//	           [-max-timeout D] [-drain-grace D] [-trace-buffer N]
//	           [-heartbeat D] [-flight-recorder N]
//	           [-access-log FILE] [-debug-addr HOST:PORT]
//	           [-archive-dir DIR] [-archive-retention BYTES]
//	           [-archive-max-age D]
//
// The daemon answers POST /v1/solve, GET /v1/jobs/{id}, GET /healthz and
// GET /metrics (JSON by default, Prometheus text with Accept: text/plain
// or ?format=prom); cmd/deployctl is the matching client. Every request
// is tagged with an X-Request-ID whose trace slice is retained in an
// event log of the last -trace-buffer events, served at
// GET /v1/requests/{id}/trace and streamed live over SSE at
// GET /v1/requests/{id}/events and GET /v1/jobs/{id}/events
// (deployctl watch is the matching consumer). Each stream reads the same
// log through its own cursor, so -trace-buffer also bounds how far a
// slow SSE client may fall behind before it sees a stream.gap. The log
// holds every request's events: under load, the default keeps about a
// second of daemon traffic, so a daemon that serves watchers under load
// should raise -trace-buffer.
// -heartbeat sets the idle keepalive interval, and -flight-recorder caps
// the trailing trace events attached to failed or cancelled job records.
// -access-log writes one JSON line per request ("-" for stderr);
// -debug-addr starts a second listener serving net/http/pprof, kept off
// the public API surface on purpose.
//
// -archive-dir enables the persistent solve archive (internal/archive):
// every non-cached solve is recorded as segmented JSONL under DIR,
// queryable at GET /v1/archive (deployctl history/report/advise) and
// powering solver=auto. -archive-retention bounds total on-disk bytes;
// -archive-max-age hides records older than D from every query and
// deletes a sealed segment once its newest record is that old. The index
// is recovered from the segments on restart, so history survives daemon
// restarts.
//
// On SIGTERM/SIGINT the daemon stops accepting work, drains in-flight
// requests and queued solves, and exits 0 — orchestrators can treat a
// non-zero exit as a failed drain. -addr-file writes the actually-bound
// address (useful with ":0" for tests and CI smoke runs).
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"nocdeploy/internal/archive"
	"nocdeploy/internal/obs"
	"nocdeploy/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nocdeployd: ")
	var (
		addr        = flag.String("addr", "127.0.0.1:7077", "listen address (use :0 for an ephemeral port)")
		addrFile    = flag.String("addr-file", "", "write the bound address to this file once listening")
		workers     = flag.Int("workers", 0, "solver pool workers (0 = all cores)")
		queue       = flag.Int("queue", 64, "queued solves before requests are rejected with 429")
		cacheSize   = flag.Int("cache-size", 256, "solution cache entries (LRU)")
		maxJobs     = flag.Int("max-jobs", 256, "live async jobs before 429")
		defTimeout  = flag.Duration("default-timeout", 0, "solve budget for requests without an explicit timeout (0 = none)")
		maxTimeout  = flag.Duration("max-timeout", time.Hour, "clamp on per-request timeouts")
		drainGrace  = flag.Duration("drain-grace", 30*time.Second, "shutdown grace for in-flight HTTP requests")
		traceBuffer = flag.Int("trace-buffer", 4096, "trace events retained for the trace and SSE endpoints (0 disables tracing)")
		heartbeat   = flag.Duration("heartbeat", 15*time.Second, "SSE idle heartbeat interval")
		flightRec   = flag.Int("flight-recorder", 64, "trailing trace events kept on failed/cancelled jobs (0 disables)")
		accessLog   = flag.String("access-log", "", "structured access log destination (- for stderr, empty disables)")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this address (empty disables)")
		archiveDir  = flag.String("archive-dir", "", "persistent solve archive directory (empty disables)")
		archiveMax  = flag.Int64("archive-retention", 256<<20, "archive size bound in bytes (oldest segments deleted past it)")
		archiveAge  = flag.Duration("archive-max-age", 0, "hide archive records older than this; a sealed segment is deleted once its newest record is (0 = keep forever)")
	)
	flag.Parse()

	alog, closeLog, err := openAccessLog(*accessLog)
	if err != nil {
		log.Fatal(err)
	}
	if closeLog != nil {
		defer closeLog()
	}

	// The flag says "0 disables"; the Config says "0 means default,
	// negative disables" so that a zero value stays safe for API users.
	tb := *traceBuffer
	if tb <= 0 {
		tb = -1
	}
	fr := *flightRec
	if fr <= 0 {
		fr = -1
	}
	var arch *archive.Store
	if *archiveDir != "" {
		arch, err = archive.Open(archive.Options{
			Dir:      *archiveDir,
			MaxBytes: *archiveMax,
			MaxAge:   *archiveAge,
		})
		if err != nil {
			log.Fatal(err)
		}
		// service.Close closes the store (it owns it from here).
	}
	svc := service.New(service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheSize:      *cacheSize,
		MaxJobs:        *maxJobs,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		Metrics:        obs.NewMetrics(),
		TraceBuffer:    tb,
		Heartbeat:      *heartbeat,
		FlightRecorder: fr,
		AccessLog:      alog,
		Archive:        arch,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			log.Fatal(err)
		}
	}
	srv := &http.Server{Handler: svc.Handler()}

	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		go serveDebug(dln)
		log.Printf("pprof on http://%s/debug/pprof/", dln.Addr())
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	log.Printf("listening on http://%s", bound)

	select {
	case err := <-serveErr:
		log.Fatal(err) // Serve never returns nil before Shutdown
	case <-ctx.Done():
	}
	log.Print("shutting down: draining in-flight requests and queued solves")
	shCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		log.Fatalf("http shutdown: %v", err)
	}
	svc.Close() // runs every admitted solve and async job to completion
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("serve: %v", err)
	}
	log.Print("drained cleanly")
}

// openAccessLog resolves the -access-log destination: "" disables,
// "-" is stderr, anything else appends to a file.
func openAccessLog(dest string) (io.Writer, func(), error) {
	switch dest {
	case "":
		return nil, nil, nil
	case "-":
		return os.Stderr, nil, nil
	}
	f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return f, func() {
		if err := f.Close(); err != nil {
			log.Printf("closing access log: %v", err)
		}
	}, nil
}

// serveDebug runs the pprof endpoints on their own listener. The default
// mux would get them for free, but the API server deliberately uses its
// own mux, so register the handlers explicitly here.
func serveDebug(ln net.Listener) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if err := http.Serve(ln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
		log.Printf("debug server: %v", err)
	}
}
