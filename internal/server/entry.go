package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"sideeffect"
	"sideeffect/internal/gofront"
	"sideeffect/internal/lint"
	"sideeffect/internal/report"
	"sideeffect/internal/store"
)

// cached is one memoized analysis and the response bodies rendered
// from it. The entry is shared by every request for the same source
// hash and must be treated as immutable (sessions never go through the
// cache); only the lazily filled lint and query forms below appear
// after it is built.
//
// An entry has one of two backings: a live Analysis (a is non-nil —
// the normal computed case), or a restored snapshot (snap is non-nil —
// the entry was loaded from a persisted checkpoint or installed by the
// watch-mode indexer, with no analysis behind it). Both fill the same
// rendered forms, so every /analyze, /lint, and query request is
// answered byte-identically; the snapshot backing is what makes a warm
// restart possible. The query kinds keep two sources because a live
// entry already holds the Analysis it answers from, while a JSONReport
// beside it would cost more memory than the rendered body it replaced
// (DESIGN.md, "Cache-entry forms").
type cached struct {
	a    *sideeffect.Analysis
	snap *store.EntrySnapshot
	// lang is "minipl" or "go", tracked so the checkpoint exporter can
	// round-trip the entry's namespace.
	lang string
	// Go-frontend entries carry the per-function lowering-confidence
	// notes and the rendered confidence table appended to text reports.
	notes []gofront.Note
	conf  string

	// full is the /analyze full-report response after its "cached"
	// value, rendered once when the entry is built; report is the report
	// object inside it, which /batch embeds.
	full, report []byte
	// sum is the integrity fingerprint taken when the entry was built
	// (see fingerprint); the cache's validation hook recomputes it on
	// every hit and evicts entries whose backing or stored body no
	// longer matches, so a corrupted entry costs a recompute instead of
	// serving a wrong answer.
	sum uint64
	// lint is the entry's one full-rules lint run and the default /lint
	// body rendered from it. Snapshot entries are built with it, from
	// the run the snapshot stores; a live entry fills it on its first
	// /lint (Server.entryLint).
	lint lazy[lintForms]
	// doc is a snapshot entry's report decoded for the query kinds
	// (gmod, guse, rmod, callsites) on the first such query.
	doc lazy[report.JSONReport]

	textOnce sync.Once
	text     string
}

// newCached wraps a freshly computed analysis and renders its
// full-report body. pkg is the Go frontend's package, whose confidence
// notes and table the entry keeps (nil for MiniPL).
func newCached(a *sideeffect.Analysis, lang string, pkg *gofront.Package) (*cached, error) {
	doc, err := json.Marshal(a.JSONReport())
	if err != nil {
		return nil, fmt.Errorf("render report: %w", err)
	}
	e := &cached{a: a, lang: lang}
	if pkg != nil {
		e.notes, e.conf = pkg.Notes, pkg.ConfidenceReport()
	}
	return e, e.seal(doc)
}

// newCachedSnap wraps a restored (or indexer-rendered) snapshot as a
// cache entry. Its full-report body indents the compact report the
// snapshot holds, and its lint forms come from the snapshot's stored
// full-rules run; nothing is decoded.
func newCachedSnap(snap *store.EntrySnapshot) (*cached, error) {
	if snap.Lint == nil {
		return nil, fmt.Errorf("snapshot entry %s: missing lint report", snap.Key)
	}
	lf, err := newLintForms(snap.Lint)
	if err != nil {
		return nil, fmt.Errorf("snapshot entry %s: %w", snap.Key, err)
	}
	e := &cached{snap: snap, lang: snap.Lang, notes: snap.Notes, conf: snap.Conf}
	e.lint.v.Store(lf)
	if err := e.seal(snap.JSON); err != nil {
		return nil, fmt.Errorf("snapshot entry %s: %w", snap.Key, err)
	}
	return e, nil
}

// seal renders the full-report body from the report's compact JSON
// and takes the entry's fingerprint.
func (e *cached) seal(doc []byte) error {
	full, rep, err := renderFull(doc, e.notes)
	if err != nil {
		return err
	}
	e.full, e.report = full, rep
	e.sum = e.fingerprint()
	return nil
}

// renderFull renders the /analyze full-report response after its
// "cached" value, byte for byte what the indenting encoder writes for
// analyzeResponse{Report: r, Notes: notes} when doc is json.Marshal(r):
// the encoder marshals compactly and then indents, so indenting doc at
// the report's depth gives the same bytes. It returns the body, copied
// out at its exact length, and the report object inside it.
func renderFull(doc []byte, notes []gofront.Note) (body, rep []byte, err error) {
	var b bytes.Buffer
	b.Grow(3 * len(doc))
	b.WriteString(",\n  \"report\": ")
	start := b.Len()
	if err := json.Indent(&b, doc, "  ", "  "); err != nil {
		return nil, nil, fmt.Errorf("render report: %w", err)
	}
	end := b.Len()
	if len(notes) > 0 {
		raw, err := json.Marshal(notes)
		if err != nil {
			return nil, nil, fmt.Errorf("render notes: %w", err)
		}
		b.WriteString(",\n  \"notes\": ")
		if err := json.Indent(&b, raw, "  ", "  "); err != nil {
			return nil, nil, fmt.Errorf("render notes: %w", err)
		}
	}
	b.WriteString("\n}\n")
	body = bytes.Clone(b.Bytes())
	return body, body[start:end], nil
}

// lintForms is an entry's full-rules lint run and the default
// configuration's /lint response rendered from it once.
type lintForms struct {
	// rep is the full run (every rule, default severities); every
	// request configuration is served from it through lint.Report.Filter.
	rep *lint.Report
	// body is the default-configuration /lint response after its
	// "cached" field, and sum its fingerprint.
	body []byte
	sum  uint64
}

// newLintForms renders the default /lint body from a full run: the
// indenting encoder over the response with hash and cached left empty,
// so omitted, and its opening brace turned into the comma that follows
// the envelope a hit writes in front of it (lintHead).
func newLintForms(full *lint.Report) (*lintForms, error) {
	rep, err := full.Filter(lint.Config{})
	if err != nil {
		return nil, err
	}
	resp, apiErr := renderLintResponse(rep, "", "")
	if apiErr != nil {
		return nil, apiErr
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(resp); err != nil {
		return nil, err
	}
	lf := &lintForms{rep: full, body: bytes.Clone(b.Bytes())}
	lf.body[0] = ','
	lf.sum = lf.fingerprint()
	return lf, nil
}

func (lf *lintForms) fingerprint() uint64 {
	h := newFold()
	h.word(uint64(len(lf.rep.Diags)))
	h.word(uint64(len(lf.rep.Counts)))
	sample(&h, lf.body)
	return uint64(h)
}

// storedBody is a response served from bytes rendered ahead of time:
// writeJSON writes head and tail as they are, with no encoder.
type storedBody struct {
	head string
	tail []byte
}

// analyzeHead is the envelope in front of an entry's full-report body.
// The key is a hex digest, so it needs no escaping.
func analyzeHead(key string, hit bool) string {
	return "{\n  \"hash\": \"" + key + "\",\n  \"cached\": " + strconv.FormatBool(hit)
}

// lintHead is the envelope in front of an entry's default /lint body;
// lintResponse omits "cached" when it is false.
func lintHead(key string, hit bool) string {
	if hit {
		return "{\n  \"hash\": \"" + key + "\",\n  \"cached\": true"
	}
	return "{\n  \"hash\": \"" + key + "\""
}

// lazy holds a value built on first successful use. Unlike sync.Once
// it never latches a failure: a fill that errs (a cancelled lint run,
// say) leaves the slot empty for the next caller, which is the cache's
// rule that errors are never cached, kept inside an entry. Concurrent
// first callers wait for the one fill in flight instead of each running
// their own, and stop waiting when their own context ends.
type lazy[T any] struct {
	v  atomic.Pointer[T]
	mu sync.Mutex
	// busy is closed when the fill in flight returns; nil when none runs.
	busy chan struct{}
}

func (l *lazy[T]) get(ctx context.Context, fill func() (*T, error)) (*T, error) {
	for {
		if v := l.v.Load(); v != nil {
			return v, nil
		}
		l.mu.Lock()
		busy := l.busy
		if busy == nil && l.v.Load() == nil {
			l.busy = make(chan struct{})
			l.mu.Unlock()
			return l.run(fill)
		}
		l.mu.Unlock()
		if busy != nil {
			select {
			case <-busy:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	}
}

// run is the fill in flight: it keeps the value on success and releases
// the waiters however fill returns, a panic included.
func (l *lazy[T]) run(fill func() (*T, error)) (v *T, err error) {
	defer func() {
		l.mu.Lock()
		if err == nil {
			l.v.Store(v)
		}
		close(l.busy)
		l.busy = nil
		l.mu.Unlock()
	}()
	return fill()
}

// fold is the FNV-1a-style running fingerprint behind the cache's
// integrity check. It is deliberately cheap, because it runs on every
// cache hit: enough to catch a flipped or truncated bit vector or a
// damaged body, not a cryptographic commitment.
type fold uint64

func newFold() fold { return 1469598103934665603 }

func (h *fold) word(x uint64) { *h = (*h ^ fold(x)) * 1099511628211 }

// sample folds b's length and every 64th byte into h.
func sample[T string | []byte](h *fold, b T) {
	h.word(uint64(len(b)))
	for i := 0; i < len(b); i += 64 {
		h.word(uint64(b[i]))
	}
}

// fingerprint folds what a hit serves into one word: the backing (the
// analysis's summary-set cardinalities, O(procedures), or a sample of
// every field of the snapshot) and the full-report body.
func (e *cached) fingerprint() uint64 {
	h := newFold()
	if e.a != nil {
		for _, p := range e.a.Prog.Procs {
			h.word(uint64(e.a.Mod.GMOD[p.ID].Len()))
			h.word(uint64(e.a.Use.GMOD[p.ID].Len()))
		}
		h.word(uint64(len(e.a.ModSets)))
		h.word(uint64(len(e.a.UseSets)))
	} else {
		s := e.snap
		sample(&h, s.Key)
		sample(&h, s.Lang)
		sample(&h, s.JSON)
		sample(&h, s.Text)
		if s.Lint != nil {
			h.word(uint64(len(s.Lint.Diags)))
			h.word(uint64(len(s.Lint.Counts)))
		}
		h.word(uint64(len(s.Notes)))
		sample(&h, s.Conf)
	}
	sample(&h, e.full)
	return uint64(h)
}

// intact reports whether every form the entry serves still matches the
// fingerprint taken when it was rendered.
func (e *cached) intact() bool {
	if e.fingerprint() != e.sum {
		return false
	}
	lf := e.lint.v.Load()
	return lf == nil || lf.fingerprint() == lf.sum
}

func (e *cached) textReport() string {
	e.textOnce.Do(func() {
		if e.snap != nil {
			e.text = e.snap.Text
		} else {
			e.text = e.a.Report()
		}
		if e.conf != "" {
			e.text += "\n" + e.conf
		}
	})
	return e.text
}

// queryDoc decodes a snapshot entry's report for the query kinds. A
// report that does not decode is the server's fault, not the
// request's.
func (e *cached) queryDoc(ctx context.Context) (*report.JSONReport, error) {
	return e.doc.get(ctx, func() (*report.JSONReport, error) {
		jr := new(report.JSONReport)
		if err := json.Unmarshal(e.snap.JSON, jr); err != nil {
			return nil, errInternal(fmt.Errorf("snapshot entry %s: %w", e.snap.Key, err))
		}
		return jr, nil
	})
}

// findProc locates a procedure's summary in a snapshot entry's report.
// The error text matches the live path's, so warm and cold answers stay
// byte-identical down to error bodies.
func (e *cached) findProc(ctx context.Context, proc string) (*report.JSONProcedure, error) {
	doc, err := e.queryDoc(ctx)
	if err != nil {
		return nil, err
	}
	for i := range doc.Procedures {
		if doc.Procedures[i].Name == proc {
			return &doc.Procedures[i], nil
		}
	}
	return nil, fmt.Errorf("sideeffect: no procedure %q", proc)
}

// modNames answers the "gmod" query from either backing.
func (e *cached) modNames(ctx context.Context, proc string) ([]string, error) {
	if e.a != nil {
		return e.a.MOD(proc)
	}
	p, err := e.findProc(ctx, proc)
	if err != nil {
		return nil, err
	}
	return p.GMOD, nil
}

// useNames answers the "guse" query from either backing.
func (e *cached) useNames(ctx context.Context, proc string) ([]string, error) {
	if e.a != nil {
		return e.a.USE(proc)
	}
	p, err := e.findProc(ctx, proc)
	if err != nil {
		return nil, err
	}
	return p.GUSE, nil
}

// rmodNames answers the "rmod" query from either backing.
func (e *cached) rmodNames(ctx context.Context, proc string) ([]string, error) {
	if e.a != nil {
		return e.a.RMOD(proc)
	}
	p, err := e.findProc(ctx, proc)
	if err != nil {
		return nil, err
	}
	return p.RMOD, nil
}

// callSites answers the "callsites" query from either backing. The
// snapshot path reconstructs the wire shape from the decoded report,
// whose per-site MOD/USE/section strings were rendered by the same code
// the live path renders with.
func (e *cached) callSites(ctx context.Context) ([]sideeffect.CallSite, error) {
	if e.a != nil {
		return e.a.CallSites(), nil
	}
	doc, err := e.queryDoc(ctx)
	if err != nil {
		return nil, err
	}
	out := make([]sideeffect.CallSite, 0, len(doc.CallSites))
	for _, cs := range doc.CallSites {
		out = append(out, sideeffect.CallSite{
			Caller:   cs.Caller,
			Callee:   cs.Callee,
			Pos:      cs.Pos,
			MOD:      cs.MOD,
			USE:      cs.USE,
			Sections: cs.Sections,
		})
	}
	return out, nil
}
