// Command epoc-serve runs the EPOC compilation pipeline as a
// long-lived HTTP/JSON service: POST OpenQASM 2.0 + options to
// /v1/compile and receive the run-manifest envelope; see SERVING.md
// for the full API reference and operations guide.
//
// Usage:
//
//	epoc-serve -addr localhost:8080
//	epoc-serve -addr :8080 -workers 4 -queue 64 -default-deadline 1m
//
//	curl -s localhost:8080/v1/compile -d '{"circuit":"ghz","options":{"mode":"estimate"}}'
//
// The process drains gracefully on SIGINT/SIGTERM: new compiles get
// 503, queued and running ones finish (bounded by -drain-timeout),
// then the listener closes.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"epoc/internal/logx"
	"epoc/internal/serve"
)

func main() {
	var (
		addr            = flag.String("addr", "localhost:8080", "listen address (host:port; :0 picks a free port)")
		workers         = flag.Int("workers", 2, "compile worker pool: max concurrent compilations")
		queue           = flag.Int("queue", 16, "admission queue depth; a full queue answers 429 + Retry-After")
		compileWorkers  = flag.Int("compile-workers", 1, "default per-compile synthesis/QOC parallelism (request options.workers overrides)")
		defaultDeadline = flag.Duration("default-deadline", 2*time.Minute, "soft deadline applied when a request has no deadline_ms")
		maxDeadline     = flag.Duration("max-deadline", 10*time.Minute, "cap on requested deadlines")
		drainTimeout    = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown bound: in-flight compiles are canceled after this long")
		retainJobs      = flag.Int("retain-jobs", 128, "finished jobs kept queryable via GET /v1/compile/{id}")
		maxQubits       = flag.Int("max-qubits", 256, "reject circuits wider than this")
		maxBody         = flag.Int64("max-body-bytes", 1<<20, "request body size cap")
		noDebug         = flag.Bool("no-debug", false, "do not mount /debug/pprof on the service mux")
		storePath       = flag.String("store", "", "persistent pulse/synth store root: warm the caches from it at startup, flush new entries after every compile")
		logLevel        = flag.String("log-level", "info", "structured JSON log level on stderr: info | warn | error | off (SERVING.md \"Logging\")")
	)
	flag.Parse()

	var logger *logx.Logger
	if *logLevel != "off" {
		level, err := logx.ParseLevel(*logLevel)
		if err != nil {
			fatal(err)
		}
		logger = logx.New(os.Stderr, level)
	}

	srv, err := serve.New(serve.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CompileWorkers:  *compileWorkers,
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
		RetainJobs:      *retainJobs,
		MaxQubits:       *maxQubits,
		MaxBodyBytes:    *maxBody,
		Debug:           !*noDebug,
		StorePath:       *storePath,
		Log:             logger,
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(os.Stderr, "epoc-serve: listening on http://%s (workers=%d queue=%d)\n",
		ln.Addr(), *workers, *queue)

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "epoc-serve: %v — draining (up to %s)\n", sig, *drainTimeout)
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		// Drain compiles first so blocked synchronous POSTs can still
		// flush their responses, then close the listener.
		if err := srv.Shutdown(drainCtx); err != nil {
			fmt.Fprintf(os.Stderr, "epoc-serve: drain incomplete: %v\n", err)
		}
		httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancelHTTP()
		if err := httpSrv.Shutdown(httpCtx); err != nil {
			fmt.Fprintf(os.Stderr, "epoc-serve: http shutdown: %v\n", err)
		}
		fmt.Fprintln(os.Stderr, "epoc-serve: stopped")
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "epoc-serve:", err)
	os.Exit(1)
}
