package sideeffect

import (
	"context"
	"fmt"

	"sideeffect/internal/batch"
	"sideeffect/internal/binding"
	"sideeffect/internal/callgraph"
	"sideeffect/internal/core"
	"sideeffect/internal/ir"
)

// additiveEdit returns the analysis of prog built beside cur, when prog
// is an additive extension of cur.Prog (ir.AdditiveDelta): a reparsed,
// ID-isomorphic program model whose local facts only grew, so that the
// next analysis carries the new source's positions. β and the call
// graph are built once for both problems, core.Update carries each of
// MOD and USE across all of the edit's new facts, sharing every row it
// does not write, and the derived stages are refreshed. ALIAS(p) is
// unchanged by such an edit, so the alias solution is re-pointed at
// prog, not recomputed. The next analysis keeps cur's Stages profile,
// which records the edit's own work. It returns nil and no error when
// the edit is not additive. A panic comes back as an error; either way
// cur is left as it was.
func additiveEdit(ctx context.Context, cur *Analysis, prog *ir.Program, opts Options) (next *Analysis, err error) {
	modAdds, useAdds, ok := ir.AdditiveDelta(cur.Prog, prog)
	if !ok {
		return nil, nil
	}
	defer func() {
		if rec := recover(); rec != nil {
			next, err = nil, fmt.Errorf("sideeffect: incremental edit failed: %w", batch.Capture(rec))
		}
	}()
	a := *cur
	a.Prog, a.Aliases = prog, cur.Aliases.For(prog)
	var beta *binding.Beta
	var cg *callgraph.CallGraph
	a.Stages.Do("structure", func() { beta, cg = binding.Build(prog), callgraph.Build(prog) })
	a.Stages.Do("mod.update", func() { a.Mod, err = core.Update(cur.Mod, prog, beta, cg, modAdds) })
	if err != nil {
		return nil, err
	}
	a.Stages.Do("use.update", func() { a.Use, err = core.Update(cur.Use, prog, beta, cg, useAdds) })
	if err != nil {
		return nil, err
	}
	if err := a.refreshDerivedCtx(ctx, opts); err != nil {
		return nil, err
	}
	return &a, nil
}

// EditMode reports how a Session absorbed an edit.
type EditMode int

// Edit modes.
const (
	// EditFull means the edit was non-additive and the program was
	// reanalyzed from scratch.
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
// the source text; the session decides how to bring the analysis up to
// date:
//
//   - if the new source is an additive extension of the old one — the
//     same declarations, call sites, and array accesses, with possibly
//     new scalar modifications/uses (for example a few new assignment
//     or write statements) — the current solution is carried across
//     the new facts by delta propagation (core.Update), and the
//     derived stages are refreshed;
//   - otherwise the program is reanalyzed from scratch.
//
// Either way the resulting Analysis is identical, byte for byte in its
// reports, to a fresh Analyze of the new source; the mode only changes
// how much work was done. An edit builds the next analysis beside the
// current one and swaps it in only once it is complete, so an edit
// lands whole or not at all, and an Analysis the session handed out is
// never written by a later edit — except its Stages profile, which an
// incremental edit carries over and adds its own stages to. A Session
// is not safe for concurrent use; the server serializes access per
// session.
type Session struct {
	opts Options
	src  string
	a    *Analysis
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
