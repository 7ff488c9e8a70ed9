// Package trace is a fixture stub of the real internal/trace: just
// enough surface for the spanend demo to type-check. The analyzer
// skips this package itself (it constructs spans).
package trace

type Tracer struct{}

func New() *Tracer { return &Tracer{} }

func (t *Tracer) Start(name string) *Span { return &Span{} }

type Span struct{}

func (s *Span) Child(name string) *Span        { return &Span{} }
func (s *Span) End()                           {}
func (s *Span) SetStr(k, v string) *Span       { return s }
func (s *Span) SetInt(k string, v int64) *Span { return s }
func (s *Span) SetBool(k string, v bool) *Span { return s }

type Region struct{ span *Span }

func Open(t *Tracer, name string) Region         { return Region{} }
func (r Region) Stage(name string) Region        { return Region{} }
func (r Region) Child(name string) Region        { return Region{} }
func (r Region) End()                            {}
func (r Region) SetStr(k, v string) Region       { return r }
func (r Region) SetInt(k string, v int64) Region { return r }
