package store

import (
	"encoding/json"
	"fmt"
	"strings"

	"sideeffect"
	"sideeffect/internal/cache"
	"sideeffect/internal/gofront"
	"sideeffect/internal/lint"
)

// Key is the serving cache's content address for src under lang, the
// one derivation behind every request handler, the session view and
// the watch-mode indexer, so an installed entry is found by the
// matching request. It is injective across languages. MiniPL sources
// key on their bytes. A "go" key folds a namespace and the frontend's
// lowering version in front of them: the two frontends never serve
// each other's entries, and an entry persisted by an older lowering is
// never served for bytes the new lowering reads differently. Every
// namespace holds a NUL byte, so a MiniPL source that holds one too —
// which no valid MiniPL program does — is keyed under a "minipl"
// namespace: a forged source never takes a Go source's key, and no
// valid source's key moves.
func Key(lang, src string) string {
	switch {
	case lang == "go":
		return cache.Key(fmt.Sprintf("go\x00v%d\x00", gofront.LoweringVersion) + src)
	case strings.IndexByte(src, 0) >= 0:
		return cache.Key("minipl\x00" + src)
	}
	return cache.Key(src)
}

// EntrySnapshot is one content-addressed cache entry rendered to pure
// data: everything the serving layer answers about an analysis —
// the JSON report, the text report, per-procedure and per-call-site
// query answers (all inside the JSON report), the full-rules lint
// report (filtered per request on the warm path), and the Go
// frontend's confidence notes — with no live Analysis behind it. A
// restored daemon serves these byte-identically to a fresh
// computation, because every field was rendered by the same code a
// fresh computation renders with.
type EntrySnapshot struct {
	// Key is the content-addressed cache key (language-namespaced for
	// Go sources, exactly as the serving layer computes it).
	Key string
	// Lang is "minipl" or "go".
	Lang string
	// JSON is the marshaled report.JSONReport. It is persisted as
	// JSON bytes (not as the struct): the serving layer indents them
	// into its full-report body without decoding, which preserves
	// nil-vs-empty slice distinctions byte for byte.
	JSON []byte
	// Text is the rendered text report (Analysis.Report, without the
	// confidence table — the serving layer appends Conf like it does
	// for live entries).
	Text string
	// Lint is a full run of the diagnostics engine (every rule, default
	// severities). Warm /lint requests derive any requested
	// configuration from it with lint.Report.Filter.
	Lint *lint.Report
	// Notes and Conf carry the Go frontend's per-function confidence
	// records and rendered table; empty for MiniPL entries.
	Notes []gofront.Note
	Conf  string
}

// BuildEntry renders a completed analysis into an EntrySnapshot under
// the given cache key. notes and conf are the Go frontend's
// confidence data (nil/"" for MiniPL). The analysis is only read.
func BuildEntry(a *sideeffect.Analysis, key, lang string, notes []gofront.Note, conf string) (*EntrySnapshot, error) {
	jr := a.JSONReport()
	data, err := json.Marshal(jr)
	if err != nil {
		return nil, fmt.Errorf("store: render report: %w", err)
	}
	rep, err := a.Lint(lint.Config{})
	if err != nil {
		return nil, fmt.Errorf("store: render lint: %w", err)
	}
	return &EntrySnapshot{
		Key:   key,
		Lang:  lang,
		JSON:  data,
		Text:  a.Report(),
		Lint:  rep,
		Notes: notes,
		Conf:  conf,
	}, nil
}
