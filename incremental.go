package sideeffect

import (
	"context"

	"sideeffect/internal/lang/parser"
)

// EditMode reports how a Session absorbed an edit.
type EditMode int

// Edit modes.
const (
	// EditFull means the program was reanalyzed from scratch: the edit
	// was not additive, or its first attempt panicked and the retry
	// started from nothing.
	EditFull EditMode = iota
	// EditIncremental means the edit only added local facts and the
	// current solution was carried across it by delta propagation.
	EditIncremental
)

// String returns "full" or "incremental".
func (m EditMode) String() string {
	if m == EditIncremental {
		return "incremental"
	}
	return "full"
}

// Session holds a program open across edits — the programming-
// environment scenario the paper was built for, where the program is
// edited and the environment wants updated summaries without
// re-running the whole-program analysis — and is the unit of service
// behind the analysis server's /session endpoints. Each Edit replaces
// the source text. The session keeps the parse tree of its text, and an
// edit parses only the top-level items (global declarations,
// procedures, the main block) whose text changed, taking every other
// one from that tree (parser.ParseFrom); sem and prune still run over
// the whole program. The session then decides how to bring the
// analysis up to date:
//
//   - if the new source is an additive extension of the old one — the
//     same declarations, call sites, and array accesses, with possibly
//     new scalar modifications/uses (for example a few new assignment
//     or write statements) — the current solution is carried across
//     the new facts by delta propagation (core.Update), ALIAS(p) is
//     kept, only the call sites whose DMOD row changed are factored
//     through the aliases again (the others keep their factored sets),
//     and the section solutions are kept unless a GMOD row the update
//     grew gained a variable that a symbolic subscript can name, when
//     they are solved again;
//   - otherwise the program is reanalyzed from scratch.
//
// Either way the edit is an analysis like any other, run by the same
// pipeline under the same contract and retry (see EditContext), and
// the resulting Analysis is identical, byte for byte in its reports,
// to a fresh Analyze of the new source; the mode only changes how much
// work was done. An edit builds the next analysis beside the current
// one, with a profile of its own, and swaps it in, with the new text
// and its tree, only once it is complete, so an edit lands whole or not
// at all, and neither an Analysis the session handed out nor a tree is
// ever written by a later edit. A Session is not safe for concurrent
// use; the server serializes access per session.
type Session struct {
	opts Options
	src  string
	a    *Analysis
	tree *parser.Tree
}

// NewSession is NewSessionContext with no deadline.
func NewSession(src string, opts Options) (*Session, error) {
	return NewSessionContext(context.Background(), src, opts)
}

// Analysis returns the session's current analysis.
func (s *Session) Analysis() *Analysis { return s.a }

// Source returns the session's current source text.
func (s *Session) Source() string { return s.src }

// Edit replaces the session's source text and brings the analysis up
// to date, incrementally when the edit is additive and by full
// reanalysis otherwise. On any error the session is left unchanged and
// the error is returned. Edit is EditContext with no deadline.
func (s *Session) Edit(newSrc string) (EditMode, error) {
	return s.EditContext(context.Background(), newSrc)
}

// Close is a no-op: the collector frees a session's analysis once the
// session is unreachable, and a handle that is still reachable stays
// readable. It remains so callers can pair NewSession with a deferred
// Close.
func (s *Session) Close() {}
