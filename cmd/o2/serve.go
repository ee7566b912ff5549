package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"o2/internal/sched"
	"o2/internal/server"
)

// newLogger builds the structured logger behind -log-format/-log-level.
// Format "none" (or an empty string) disables logging entirely — the
// sched/server layers take a nil logger as "off".
func newLogger(format, level string) (*slog.Logger, error) {
	if format == "none" || format == "" {
		return nil, nil
	}
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	}
	return nil, fmt.Errorf("bad -log-format %q (want json, text or none)", format)
}

// Bounds on one request to o2 serve: the time a client may take to send
// its headers, and the deadline of a job whose request sets none.
const (
	readHeaderTimeout = 10 * time.Second
	defaultJobTimeout = 5 * time.Minute
)

// newHTTPServer returns o2 serve's HTTP server for h. Its
// ReadHeaderTimeout keeps a client that never finishes its headers from
// holding a connection open.
func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// runServe starts the batch-analysis HTTP service and blocks until
// SIGINT/SIGTERM, then drains in-flight jobs before exiting.
func runServe(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8347", "listen address (use :0 for an ephemeral port)")
	addrFile := fs.String("addr-file", "", "write the bound address to this file once listening (for scripts)")
	workers := fs.Int("workers", 0, "job worker-pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "admission queue depth (backpressure beyond it)")
	cache := fs.Int("cache", 128, "result-cache entries (-1 disables caching)")
	jobTimeout := fs.Duration("job-timeout", defaultJobTimeout, "default per-job deadline, for requests that set none (0 = none)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
	logFormat := fs.String("log-format", "text", "structured-log format: json, text, none")
	logLevel := fs.String("log-level", "info", "minimum log level: debug, info, warn, error")
	pprofF := fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (profiling; do not enable on untrusted networks)")
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: o2 serve [flags]")
		return exitUsage
	}
	logger, err := newLogger(*logFormat, *logLevel)
	if err != nil {
		return fail(exitUsage, err)
	}

	s := sched.New(sched.Options{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		DefaultTimeout: *jobTimeout,
		CollectStats:   true,
		Log:            logger,
	})
	srvOpts := []server.Option{server.WithLogger(logger)}
	if *pprofF {
		srvOpts = append(srvOpts, server.WithPprof())
	}
	srv := server.New(s, srvOpts...)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail(exitInternal, err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return fail(exitInternal, err)
		}
	}
	fmt.Fprintf(os.Stderr, "o2 serve: listening on http://%s (workers=%d queue=%d cache=%d)\n",
		bound, s.Stats().Workers, *queue, *cache)

	httpSrv := newHTTPServer(srv)
	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "o2 serve: %s, draining...\n", sig)
	case err := <-errCh:
		return fail(exitInternal, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "o2 serve: http shutdown:", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "o2 serve: drain incomplete:", err)
		return exitInternal
	}
	st := s.Stats()
	fmt.Fprintf(os.Stderr, "o2 serve: drained (completed=%d failed=%d canceled=%d cache hits=%d)\n",
		st.Completed, st.Failed, st.Canceled, st.CacheHits)
	return exitOK
}
