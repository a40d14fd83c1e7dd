package server

import (
	"context"
	"errors"
	"net/http"

	"sideeffect"
	"sideeffect/internal/batch"
	"sideeffect/internal/cache"
	"sideeffect/internal/lint"
)

// lintRequest is the /lint body. Source is required; the remaining
// fields mirror modlint's flags. Format selects an extra rendered form
// carried alongside the structured diagnostics: "text" or "sarif"
// (the JSON shape is always present).
type lintRequest struct {
	Source      string   `json:"source"`
	Rules       []string `json:"rules,omitempty"`
	Disable     []string `json:"disable,omitempty"`
	MinSeverity string   `json:"minSeverity,omitempty"`
	Format      string   `json:"format,omitempty"`
	// Lang selects the frontend ("" or "minipl" for MiniPL, "go" for
	// a single-file Go package), like /analyze.
	Lang string `json:"lang,omitempty"`
}

// lintDiagnostic is one finding on the wire — the same field set the
// modlint JSON writer emits.
type lintDiagnostic struct {
	Rule     string `json:"rule"`
	Name     string `json:"name"`
	Severity string `json:"severity"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Proc     string `json:"proc,omitempty"`
	Subject  string `json:"subject,omitempty"`
	Message  string `json:"message"`
}

// lintResponse is the /lint and /session/{id}/lint answer.
type lintResponse struct {
	Hash        string           `json:"hash,omitempty"`
	Cached      bool             `json:"cached,omitempty"`
	Findings    int              `json:"findings"`
	Counts      map[string]int   `json:"counts"`
	Diagnostics []lintDiagnostic `json:"diagnostics"`
	Rendered    string           `json:"rendered,omitempty"`
}

// isDefault reports whether the request asks for the default
// configuration in the default format, the form each entry stores.
func (req *lintRequest) isDefault() bool {
	return len(req.Rules) == 0 && len(req.Disable) == 0 && req.MinSeverity == "" && req.Format == ""
}

// lintConfig translates the request's selection fields.
func (req *lintRequest) lintConfig() (lint.Config, *apiError) {
	cfg := lint.Config{Enable: req.Rules, Disable: req.Disable}
	if req.MinSeverity != "" {
		sev, err := lint.ParseSeverity(req.MinSeverity)
		if err != nil {
			return cfg, errBadRequest("%v", err)
		}
		cfg.MinSeverity = sev
	}
	switch req.Format {
	case "", "text", "sarif":
	default:
		return cfg, errBadRequest("unknown format %q (want text or sarif)", req.Format)
	}
	return cfg, nil
}

// buildLintResponse runs the engine over a session's analysis and
// assembles the wire form, recording the run in the metrics. file
// names the artifact in rendered output. A panic in a lint rule comes
// back as a structured internal error, never across the HTTP boundary.
func (s *Server) buildLintResponse(ctx context.Context, a *sideeffect.Analysis, file string, cfg lint.Config, format string) (*lintResponse, *apiError) {
	rep, err := a.Lint(cfg)
	if err != nil {
		return nil, lintError(ctx, err)
	}
	s.met.lintRun(rep.Counts)
	return renderLintResponse(rep, file, format)
}

// lintError classifies a failed engine run: cancellation and captured
// panics through errFrom, anything else (a configuration the engine
// rejects) as the request's fault.
func lintError(ctx context.Context, err error) *apiError {
	var pe *batch.PanicError
	if errors.As(err, &pe) || ctx.Err() != nil {
		return errFrom(err)
	}
	return errBadRequest("%v", err)
}

// renderLintResponse assembles the wire form from a completed report.
func renderLintResponse(rep *lint.Report, file string, format string) (*lintResponse, *apiError) {
	resp := &lintResponse{
		Findings:    len(rep.Diags),
		Counts:      rep.Counts,
		Diagnostics: make([]lintDiagnostic, 0, len(rep.Diags)),
	}
	for _, d := range rep.Diags {
		resp.Diagnostics = append(resp.Diagnostics, lintDiagnostic{
			Rule: d.Rule, Name: d.Name, Severity: d.Severity.String(),
			Line: d.Pos.Line, Col: d.Pos.Col,
			Proc: d.Proc, Subject: d.Subject, Message: d.Message,
		})
	}
	files := []lint.FileReport{{File: file, Report: rep}}
	switch format {
	case "text":
		resp.Rendered = lint.Text(files)
	case "sarif":
		out, err := lint.SARIF(files)
		if err != nil {
			return nil, errAnalysis(err)
		}
		resp.Rendered = out
	}
	return resp, nil
}

// entryLint returns a cache entry's full-rules lint forms. The first
// /lint for a live entry runs the engine once, with every rule at its
// default severity; concurrent first requests wait for that one run,
// and a run that fails (a cancelled request, a captured panic) is not
// kept, so the next request runs it again. Snapshot entries are built
// with their forms and never reach the engine.
func (s *Server) entryLint(ctx context.Context, e *cached) (*lintForms, *apiError) {
	lf, err := e.lint.get(ctx, func() (*lintForms, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		rep, err := e.a.Lint(lint.Config{})
		if err != nil {
			return nil, err
		}
		s.met.lintRun(rep.Counts)
		return newLintForms(rep)
	})
	if err != nil {
		return nil, lintError(ctx, err)
	}
	return lf, nil
}

// handleLint is POST /lint: one-shot diagnostics over a source text.
// The analysis is resolved through the content-addressed cache exactly
// like /analyze, and every configuration is derived from the entry's
// one full-rules run with lint.Report.Filter (byte-identical to a fresh
// run of that configuration), so linting a program the server has
// already linted runs nothing; the default configuration is written
// from the entry's stored body.
func (s *Server) handleLint(w http.ResponseWriter, r *http.Request) (int, any, *apiError) {
	var req lintRequest
	if apiErr := s.decodeJSON(r, &req); apiErr != nil {
		return 0, nil, apiErr
	}
	if req.Source == "" {
		return 0, nil, errBadRequest("missing \"source\"")
	}
	cfg, apiErr := req.lintConfig()
	if apiErr != nil {
		return 0, nil, apiErr
	}
	if req.Lang == "" {
		req.Lang = r.URL.Query().Get("lang")
	}
	entry, key, outcome, err := s.resolve(r.Context(), req.Lang, req.Source, s.requestOpts())
	if err != nil {
		return 0, nil, errFrom(err)
	}
	lf, apiErr := s.entryLint(r.Context(), entry)
	if apiErr != nil {
		return 0, nil, apiErr
	}
	hit := outcome == cache.Hit
	if req.isDefault() {
		return http.StatusOK, storedBody{head: lintHead(key, hit), tail: lf.body}, nil
	}
	rep, err := lf.rep.Filter(cfg)
	if err != nil {
		return 0, nil, errBadRequest("%v", err)
	}
	file := "source.mpl"
	if req.Lang == "go" {
		file = "source.go"
	}
	resp, apiErr := renderLintResponse(rep, file, req.Format)
	if apiErr != nil {
		return 0, nil, apiErr
	}
	resp.Hash = key
	resp.Cached = hit
	return http.StatusOK, resp, nil
}

// sessionLintRequest configures a lint run over a session's current
// program state (no source: the session already holds it).
type sessionLintRequest struct {
	Rules       []string `json:"rules,omitempty"`
	Disable     []string `json:"disable,omitempty"`
	MinSeverity string   `json:"minSeverity,omitempty"`
	Format      string   `json:"format,omitempty"`
}

// handleSessionLint is POST /session/{id}/lint: diagnostics over the
// session's current analysis — after an incremental edit this lints
// the incrementally-updated result without any recompute.
func (s *Server) handleSessionLint(w http.ResponseWriter, r *http.Request) (int, any, *apiError) {
	var req sessionLintRequest
	if apiErr := s.decodeJSON(r, &req); apiErr != nil {
		return 0, nil, apiErr
	}
	open, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		return 0, nil, errNotFound(r.PathValue("id"))
	}
	lr := lintRequest{Rules: req.Rules, Disable: req.Disable, MinSeverity: req.MinSeverity, Format: req.Format}
	cfg, apiErr := lr.lintConfig()
	if apiErr != nil {
		return 0, nil, apiErr
	}
	if apiErr := open.lock(r.Context()); apiErr != nil {
		return 0, nil, apiErr
	}
	defer open.unlock()
	if r.Context().Err() != nil {
		return 0, nil, errTimeout()
	}
	resp, apiErr := s.buildLintResponse(r.Context(), open.sess.Analysis(), open.id+".mpl", cfg, req.Format)
	if apiErr != nil {
		return 0, nil, apiErr
	}
	return http.StatusOK, resp, nil
}
