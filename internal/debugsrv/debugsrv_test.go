package debugsrv

import (
	"fmt"
	"io"
	"net/http"
	"testing"

	"epoc/internal/metrics"
	"epoc/internal/obs"
)

func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// counter scrapes /metrics at addr and returns the value of the
// unlabelled sample name (-1 when absent), strict-parsing the page.
func counter(t *testing.T, addr, name string) float64 {
	t.Helper()
	body := string(get(t, fmt.Sprintf("http://%s/metrics", addr)))
	fams, err := metrics.Parse(body)
	if err != nil {
		t.Fatalf("strict parser rejected /metrics: %v\n%s", err, body)
	}
	for _, f := range fams {
		for _, s := range f.Samples {
			if s.Name == name && len(s.Labels) == 0 {
				return s.Value
			}
		}
	}
	return -1
}

func TestServe(t *testing.T) {
	r := obs.New()
	r.Add("compiles", 3)
	addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}

	if got := counter(t, addr, "epoc_compiles_total"); got != 3 {
		t.Fatalf("epoc_compiles_total = %v, want 3", got)
	}

	// Counters exported live: later recording shows without re-Serve.
	r.Add("compiles", 2)
	if got := counter(t, addr, "epoc_compiles_total"); got != 5 {
		t.Fatalf("epoc_compiles_total = %v after update, want 5", got)
	}

	if body := get(t, fmt.Sprintf("http://%s/debug/pprof/cmdline", addr)); len(body) == 0 {
		t.Fatal("pprof cmdline endpoint returned nothing")
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.256.256.256:0", nil); err == nil {
		t.Fatal("no error for an unbindable address")
	}
}

// TestTwoServersOwnRecorders pins the per-mux recorder binding: two
// debug servers in one process (the two-servers-one-store shape from
// internal/serve) must each export their own recorder rather than the
// last registration winning a process-global binding.
func TestTwoServersOwnRecorders(t *testing.T) {
	ra, rb := obs.New(), obs.New()
	ra.Add("compiles", 1)
	rb.Add("compiles", 100)

	addrA, err := Serve("127.0.0.1:0", ra)
	if err != nil {
		t.Fatal(err)
	}
	addrB, err := Serve("127.0.0.1:0", rb)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		addr string
		want float64
	}{{addrA, 1}, {addrB, 100}} {
		if got := counter(t, tc.addr, "epoc_compiles_total"); got != tc.want {
			t.Fatalf("server %s exported compiles=%v, want %v", tc.addr, got, tc.want)
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	r := obs.New()
	r.Add("synthcache/hit", 4)
	r.Span("stage/zx").End()
	addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	body := string(get(t, fmt.Sprintf("http://%s/metrics", addr)))
	fams, err := metrics.Parse(body)
	if err != nil {
		t.Fatalf("strict parser rejected /metrics: %v\n%s", err, body)
	}
	found := map[string]bool{}
	for _, f := range fams {
		found[f.Name] = true
	}
	if !found["epoc_synthcache_hits_total"] || !found["epoc_stage_seconds"] {
		t.Fatalf("missing expected families in %v", found)
	}
}

func TestNilRecorder(t *testing.T) {
	addr, err := Serve("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	if body := get(t, fmt.Sprintf("http://%s/metrics", addr)); len(body) != 0 {
		t.Fatalf("nil recorder /metrics = %q, want empty", body)
	}
}
