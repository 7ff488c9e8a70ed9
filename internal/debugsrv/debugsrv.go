// Package debugsrv serves the live-debugging endpoints behind the
// CLIs' -debug-addr flag and mounted into epoc-serve's request mux:
// net/http/pprof's profiling handlers under /debug/pprof and the
// Prometheus exposition of the attached obs recorder at /metrics
// (internal/metrics), which carries every obs counter. Watching a long
// compile then needs no instrumentation beyond the flag:
//
//	epoc -in circuit.qasm -debug-addr localhost:6060 &
//	go tool pprof http://localhost:6060/debug/pprof/profile
//	curl -s localhost:6060/metrics
package debugsrv

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"

	"epoc/internal/metrics"
	"epoc/internal/obs"
)

// Register mounts the debug endpoints on mux — /debug/pprof/* and
// /metrics — with rec as the recorder behind the Prometheus exposition
// (nil is allowed and serves an empty exposition). The recorder
// binding is per-mux, not process-global, so two servers in one
// process (the two-servers-one-store test shape) each export their own
// recorder.
func Register(mux *http.ServeMux, rec *obs.Recorder) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", metrics.Handler(rec.Snapshot, nil))
}

// Handler returns a standalone mux carrying only the debug endpoints,
// with rec attached as the /metrics recorder.
func Handler(rec *obs.Recorder) http.Handler {
	mux := http.NewServeMux()
	Register(mux, rec)
	return mux
}

// Serve starts the debug HTTP server on addr, exposing /debug/pprof
// and /metrics (rec's exposition; nil is allowed and serves an empty
// one). The listener is opened
// synchronously so address errors surface to the caller; the serve
// loop then runs in a background goroutine for the life of the
// process, matching the flag's use — there is deliberately no Stop. It
// returns the bound address, useful when addr held port 0.
func Serve(addr string, rec *obs.Recorder) (string, error) {
	h := Handler(rec)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("debugsrv: %w", err)
	}
	//epoc:lint-ignore goleak the serve loop intentionally runs for the life of the process; there is deliberately no Stop (see doc comment)
	go func() {
		// http.Serve only returns on listener failure; the process is
		// exiting then and there is nobody to hand the error to.
		_ = http.Serve(ln, h)
	}()
	return ln.Addr().String(), nil
}
