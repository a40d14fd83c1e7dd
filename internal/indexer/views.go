package indexer

import (
	"fmt"
	"strings"

	"sideeffect/internal/store"
)

// This file is the indexer's read side: the JSON views served on
// /index/status and /index/files, and the Prometheus lines merged
// into /metrics. The method set matches the server's IndexView
// interface structurally — no import in either direction.

// statusView is the /index/status payload.
type statusView struct {
	Root     string `json:"root"`
	Watching bool   `json:"watching"`
	Stats
	LastScanUnixNs int64 `json:"lastScanUnixNs,omitempty"`
}

// Stats returns a copy of the counters (test hook and daemon logging).
func (ix *Indexer) Stats() Stats {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.stats
}

// Status implements the server's IndexView.
func (ix *Indexer) Status() any {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	st := ix.stats
	st.Files = len(ix.files)
	return statusView{Root: ix.cfg.Root, Watching: ix.watching, Stats: st, LastScanUnixNs: ix.lastScanNs}
}

// Files implements the server's IndexView: the per-file table in path
// order.
func (ix *Indexer) Files() any {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.table()
}

// table copies the per-file table in path order. ix.mu must be held.
func (ix *Indexer) table() []store.FileState {
	out := make([]store.FileState, 0, len(ix.files))
	for _, path := range sortedPaths(ix.files) {
		out = append(out, *ix.files[path])
	}
	return out
}

// MetricsLines implements the server's IndexView: fully formed
// Prometheus exposition lines for the indexer counters.
func (ix *Indexer) MetricsLines() string {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var b strings.Builder
	b.WriteString("# HELP modand_index_files Files currently tracked by the watch-mode indexer.\n")
	b.WriteString("# TYPE modand_index_files gauge\n")
	fmt.Fprintf(&b, "modand_index_files %d\n", len(ix.files))
	counter := func(name, help string, v int64) {
		if help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, help)
		}
		fmt.Fprintf(&b, "# TYPE %s counter\n", name)
		fmt.Fprintf(&b, "%s %d\n", name, v)
	}
	counter("modand_index_scans_total", "Directory scans completed.", ix.stats.Scans)
	counter("modand_index_batches_total", "Debounced change batches processed.", ix.stats.Batches)
	counter("modand_index_analyses_total", "Analyses the indexer ran (any mode).", ix.stats.Analyses)
	counter("modand_index_incremental_total", "Changes absorbed by incremental propagation.", ix.stats.IncrementalEdits)
	counter("modand_index_full_total", "Changes requiring a full (re)analysis.", ix.stats.FullReanalyses)
	counter("modand_index_warm_total", "Changes satisfied by already-cached content (renames, restarts, reverts).", ix.stats.Warm)
	counter("modand_index_deletes_total", "Tracked files deleted.", ix.stats.Deletes)
	counter("modand_index_renames_total", "Deletions matched to same-content creations.", ix.stats.Renames)
	counter("modand_index_errors_total", "Files whose analysis failed.", ix.stats.Errors)
	return b.String()
}
