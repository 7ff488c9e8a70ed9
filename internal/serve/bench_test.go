package serve

import (
	"net/http"
	"testing"
)

// BenchmarkServedRepeat measures a warm repeat through s.Handler():
// one cold request fills the process-wide caches, then every
// iteration is a pulse-library hit end to end — admission, the
// compile, the manifest and the response JSON. Run it with -benchmem;
// allocs/op is the serving path's per-request cost.
func BenchmarkServedRepeat(b *testing.B) {
	for _, bc := range []struct{ name, body string }{
		{"qft-full", `{"circuit":"qft","options":{"mode":"full","seed":1}}`},
		{"qaoa-estimate", `{"circuit":"qaoa","options":{"mode":"estimate","seed":1}}`},
	} {
		b.Run(bc.name, func(b *testing.B) {
			s := newTestServer(b, Config{Workers: 1}, nil) // real compile
			if w := post(s, bc.body, nil); w.Code != http.StatusOK {
				b.Fatalf("cold request: %d %s", w.Code, w.Body.String())
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if w := post(s, bc.body, nil); w.Code != http.StatusOK {
					b.Fatalf("warm repeat: %d %s", w.Code, w.Body.String())
				}
			}
		})
	}
}
