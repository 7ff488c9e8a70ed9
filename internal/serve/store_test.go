package serve

// Persistent-store integration: these tests run the real pipeline
// (no stubbed compile) against tiny circuits, so a "restarted" server
// is just a second Server over the same store directory.

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"testing"
	"time"
)

// warmQASM is the restart-warm fixture: small enough that a full-GRAPE
// compile stays in test-friendly time, non-trivial enough to persist
// several pulse records.
const warmQASM = `OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
rx(0.5) q[0];
ry(0.25) q[1];
cx q[0],q[1];
rx(0.17) q[1];
`

func compileWarmQASM(t *testing.T, s *Server) *CompileResponse {
	t.Helper()
	w := post(s, `{"qasm":`+jsonString(warmQASM)+`}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("compile: status %d, body %s", w.Code, w.Body.String())
	}
	resp := decodeEnvelope(t, w)
	if resp.Status != statusDone || resp.Manifest == nil {
		t.Fatalf("compile did not finish: %+v", resp)
	}
	return resp
}

func jsonString(s string) string {
	b, err := json.Marshal(s)
	if err != nil {
		panic(err)
	}
	return string(b)
}

func shutdownServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func statsStore(t *testing.T, s *Server) *StoreTotals {
	t.Helper()
	w := get(s, "/v1/stats")
	if w.Code != http.StatusOK {
		t.Fatalf("stats: status %d", w.Code)
	}
	var stats StatsResponse
	if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	return stats.Store
}

// TestServeRestartAnswersWarmFromStore is the serving half of the
// tentpole: a daemon restarted over the same store directory answers a
// repeat circuit without a single GRAPE run, with identical metrics.
func TestServeRestartAnswersWarmFromStore(t *testing.T) {
	dir := t.TempDir()

	s1, err := New(Config{Workers: 1, StorePath: dir})
	if err != nil {
		t.Fatal(err)
	}
	cold := compileWarmQASM(t, s1)
	coldQOC := cold.Manifest.Metrics["qoc_runs"]
	if coldQOC == 0 {
		t.Fatal("cold compile ran no QOC — fixture too trivial")
	}
	st1 := statsStore(t, s1)
	if st1 == nil {
		t.Fatal("stats carries no store block despite StorePath")
	}
	if st1.PulseHarvested == 0 || st1.Flushed == 0 {
		t.Fatalf("nothing persisted: %+v", st1)
	}
	shutdownServer(t, s1)

	// The "restarted daemon": a fresh Server, same directory.
	s2, err := New(Config{Workers: 1, StorePath: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s2)
	st2 := statsStore(t, s2)
	if st2 == nil || st2.PulseRecords == 0 || st2.WarmPulses == 0 {
		t.Fatalf("restarted server did not warm from disk: %+v", st2)
	}
	if st2.Corrupt != 0 {
		t.Fatalf("restart found corrupt records: %+v", st2)
	}
	warm := compileWarmQASM(t, s2)
	if got := warm.Manifest.Metrics["qoc_runs"]; got != 0 {
		t.Fatalf("warm compile ran %v QOC optimizations, want 0", got)
	}
	for _, metric := range []string{"latency_ns", "fidelity", "pulses"} {
		if warm.Manifest.Metrics[metric] != cold.Manifest.Metrics[metric] {
			t.Fatalf("%s diverged across restart: %v vs %v",
				metric, warm.Manifest.Metrics[metric], cold.Manifest.Metrics[metric])
		}
	}
}

// TestServeStoreSkipsMismatchedRequests: a request whose options leave
// the server's namespace (different grape_iters) must compile fine and
// leave the store untouched.
func TestServeStoreSkipsMismatchedRequests(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Workers: 1, StorePath: dir})
	if err != nil {
		t.Fatal(err)
	}

	w := post(s, `{"qasm":`+jsonString(warmQASM)+`,"options":{"grape_iters":37}}`, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("mismatched compile: status %d, body %s", w.Code, w.Body.String())
	}
	if st := statsStore(t, s); st.PulseHarvested != 0 || st.Flushed != 0 {
		t.Fatalf("mismatched request reached the store: %+v", st)
	}

	// Laundering guard: a matched compile of the same circuit must not
	// library-hit the mismatched compile's in-memory pulses (and then
	// harvest them into a namespace whose physics they don't satisfy) —
	// it must pay for its own GRAPE runs under the namespace's options.
	matched := compileWarmQASM(t, s)
	if got := matched.Manifest.Metrics["qoc_runs"]; got == 0 {
		t.Fatal("matched compile reused the mismatched compile's pulses")
	}

	// The shutdown path must not smuggle the mismatched compile's
	// pulses in either: only what the matched compile harvested may be
	// on disk, and a restarted server must serve it warm.
	shutdownServer(t, s)
	s2, err := New(Config{Workers: 1, StorePath: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s2)
	st := statsStore(t, s2)
	if st.PulseRecords == 0 || st.WarmPulses == 0 {
		t.Fatalf("matched compile's entries did not persist: %+v", st)
	}
	warm := compileWarmQASM(t, s2)
	if got := warm.Manifest.Metrics["qoc_runs"]; got != 0 {
		t.Fatalf("restart re-ran %v QOC optimizations for the matched circuit", got)
	}
}

// TestTwoServersSharedStoreDir runs two live servers over one store
// directory — two daemons on one host — compiling concurrently. The
// flock + content-addressed writes must keep the directory coherent:
// a third server opened afterwards sees zero corrupt records and
// serves the union warm.
func TestTwoServersSharedStoreDir(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Workers: 2, StorePath: dir})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(Config{Workers: 2, StorePath: dir})
	if err != nil {
		t.Fatal(err)
	}

	qasms := []string{
		warmQASM,
		"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nrx(0.9) q[0];\ncx q[0],q[1];\n",
	}
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		srv := s1
		if i%2 == 1 {
			srv = s2
		}
		go func(srv *Server, qasm string) {
			w := post(srv, `{"qasm":`+jsonString(qasm)+`}`, nil)
			if w.Code != http.StatusOK {
				done <- &apiErrorErr{code: w.Code, body: w.Body.String()}
				return
			}
			done <- nil
		}(srv, qasms[i%len(qasms)])
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	shutdownServer(t, s1)
	shutdownServer(t, s2)

	s3, err := New(Config{Workers: 1, StorePath: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s3)
	st := statsStore(t, s3)
	if st.Corrupt != 0 {
		t.Fatalf("shared-dir writes corrupted the store: %+v", st)
	}
	if st.PulseRecords == 0 || st.WarmPulses == 0 {
		t.Fatalf("third server loaded nothing: %+v", st)
	}
	warm := compileWarmQASM(t, s3)
	if got := warm.Manifest.Metrics["qoc_runs"]; got != 0 {
		t.Fatalf("third server re-ran %v QOC optimizations", got)
	}
}

// apiErrorErr adapts an HTTP failure into an error for channel plumbing.
type apiErrorErr struct {
	code int
	body string
}

func (e *apiErrorErr) Error() string {
	return "compile failed: status " + http.StatusText(e.code) + ": " + e.body
}

// TestServeStoreOpenFailure: an unopenable store path must fail New
// rather than silently serving cold.
func TestServeStoreOpenFailure(t *testing.T) {
	// A regular file where the store needs a directory.
	path := t.TempDir() + "/flat"
	if err := os.WriteFile(path, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{StorePath: path}); err == nil {
		t.Fatal("New succeeded with an unusable store path")
	}
}

// TestConcurrentColdClientsRepeatAcrossRestart: two clients compile
// two neighbouring circuits cold and concurrently, in opposite orders,
// so a circuit may be compiled while the other's pulses are already
// warm-start candidates, and a unitary can get two different pulses.
// Whatever the timing, the library keeps one canonical pulse per
// unitary, so the repeats answer the same latencies before and after a
// restart warmed from the records both compiles left.
func TestConcurrentColdClientsRepeatAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	qasms := []string{
		warmQASM,
		"OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\nrx(0.55) q[0];\nry(0.3) q[1];\ncx q[0],q[1];\nrx(0.2) q[1];\n",
	}
	compile := func(s *Server, qasm string) (*CompileResponse, error) {
		w := post(s, `{"qasm":`+jsonString(qasm)+`}`, nil)
		if w.Code != http.StatusOK {
			return nil, &apiErrorErr{code: w.Code, body: w.Body.String()}
		}
		var resp CompileResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			return nil, err
		}
		return &resp, nil
	}
	repeats := func(s *Server) []float64 {
		t.Helper()
		var out []float64
		for _, q := range qasms {
			resp, err := compile(s, q)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Manifest == nil || resp.Manifest.Metrics["qoc_runs"] != 0 {
				t.Fatalf("repeat ran QOC: %+v", resp.Manifest)
			}
			out = append(out, resp.Manifest.Metrics["latency_ns"], resp.Manifest.Metrics["fidelity"])
		}
		return out
	}

	s1, err := New(Config{Workers: 2, StorePath: dir})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2)
	for client := 0; client < 2; client++ {
		go func(first int) {
			for i := 0; i < len(qasms); i++ {
				if _, err := compile(s1, qasms[(first+i)%len(qasms)]); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(client)
	}
	for range 2 {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	before := repeats(s1)
	shutdownServer(t, s1)

	s2, err := New(Config{Workers: 2, StorePath: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownServer(t, s2)
	if after := repeats(s2); !slices.Equal(after, before) {
		t.Fatalf("repeat latency and fidelity per circuit changed across the restart: %v, then %v", before, after)
	}
}
