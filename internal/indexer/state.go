package indexer

import "sideeffect/internal/store"

// This file round-trips the indexer's processed view through the
// persisted checkpoint, so a restarted daemon's first scan recognizes
// unchanged files by their stat fingerprints and runs nothing at all
// for them — the restored server cache already holds their results.

// RestoreState primes the indexer from a persisted IndexState. It
// must be called before Start. State recorded for a different root is
// ignored (the operator re-pointed the watcher; everything is cold).
// Classification sessions are not persisted: the first change to a
// restored MiniPL file rebuilds its session (a full analysis), and
// subsequent additive edits take the incremental path again.
//
// It returns how many files were primed.
func (ix *Indexer) RestoreState(st *store.IndexState) int {
	if st == nil || st.Root != ix.cfg.Root {
		return 0
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	n := 0
	for _, f := range st.Files {
		if f.Path == moduleStatePath && f.Lang == "go-module" {
			if !ix.cfg.GoModule {
				continue // module mode is off in this run
			}
		} else if lang, ok := ix.exts["."+extOf(f.Path)]; !ok || lang != f.Lang {
			continue // that frontend is not enabled in this run
		}
		ix.files[f.Path] = &f
		// Priming seen means a stat-identical file raises no event at
		// all on the first scan; a changed file differs from this
		// fingerprint and is re-processed. The synthetic module entry
		// is not a disk file: priming it into seen would make the
		// first scan's deletion sweep discard it.
		if f.Path != moduleStatePath {
			ix.seen[f.Path] = statFP{size: f.Size, modTimeNs: f.ModTimeNs}
		}
		n++
	}
	ix.stats.Files = len(ix.files)
	return n
}

// ExportState renders the processed view for checkpointing, in path
// order.
func (ix *Indexer) ExportState() *store.IndexState {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	st := &store.IndexState{Root: ix.cfg.Root}
	st.Files = ix.table()
	return st
}

// extOf returns the extension of a slash-separated path, without the
// dot.
func extOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		switch path[i] {
		case '.':
			return path[i+1:]
		case '/':
			return ""
		}
	}
	return ""
}
