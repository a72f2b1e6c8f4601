package report

import "svtsim/internal/exp"

// Renderer renders the paper's tables and figures from one experiment
// session: every cell it computes runs through that session's worker
// pool with the session's observability, fault, and topology settings.
// The zero Renderer is not usable; construct one with NewRenderer.
type Renderer struct {
	s *exp.Session
}

// NewRenderer binds a renderer to a session. A nil session binds to
// exp.Default.
func NewRenderer(s *exp.Session) *Renderer {
	if s == nil {
		s = exp.Default
	}
	return &Renderer{s: s}
}

// Session returns the bound experiment session.
func (rr *Renderer) Session() *exp.Session { return rr.s }
