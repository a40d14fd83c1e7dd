package indexer

import (
	"context"
	"os"
	"path/filepath"
	"sync"

	"sideeffect"
	"sideeffect/internal/store"
)

// process absorbs one debounced batch: deletions first (capturing old
// keys so a same-content create elsewhere in the batch is recognized
// as a rename), then creates and modifications in path order.
//
// Per changed file the ladder is, cheapest first:
//   - content already in the target cache → warm, nothing to run;
//   - known MiniPL file with a live classification session → Session.Edit,
//     which takes the incremental path for additive deltas;
//   - otherwise a full analysis (mode "cold" for files never seen,
//     "full" for known files whose session was evicted or absent).
//
// Whatever ran, the rendered snapshot is installed into the target so
// the next request for that content is served warm.
func (ix *Indexer) process(b *batch) {
	ix.mu.Lock()
	// Deletions: drop the processed view now; remember old keys for
	// rename matching. A path created and deleted inside one batch has
	// no processed view and is skipped outright.
	deletedKeys := make(map[string]string) // old key → old path
	deletedStates := make(map[string]*store.FileState)
	for _, path := range sortedPaths(b.deleted) {
		old, ok := ix.files[path]
		if !ok {
			continue
		}
		delete(ix.files, path)
		deletedKeys[old.Key] = path
		deletedStates[path] = old
	}
	ix.mu.Unlock()

	renamed := make(map[string]bool) // deleted paths matched to a create
	for _, path := range sortedPaths(b.changed) {
		ix.processFile(path, deletedKeys, deletedStates, renamed)
	}

	ix.mu.Lock()
	for path := range deletedStates {
		if renamed[path] {
			ix.stats.Renames++
		} else {
			ix.stats.Deletes++
		}
		ix.sessions.drop(path)
	}
	ix.stats.Files = len(ix.files)
	ix.mu.Unlock()

	// Module mode: any Go change in the batch re-derives the one
	// whole-module result.
	if ix.cfg.GoModule && b.touchesGo(ix.exts) {
		ix.analyzeModule()
	}
	// Count the batch only once all its work is done, so a reader that
	// sees Batches advance also sees the batch's analyses.
	ix.mu.Lock()
	ix.stats.Batches++
	ix.mu.Unlock()
	ix.logf("indexer: batch: %d changed, %d deleted", len(b.changed), len(b.deleted))
}

// touchesGo reports whether the batch contains any Go file event.
func (b *batch) touchesGo(exts map[string]string) bool {
	for path := range b.changed {
		if exts[filepath.Ext(path)] == "go" {
			return true
		}
	}
	for path := range b.deleted {
		if exts[filepath.Ext(path)] == "go" {
			return true
		}
	}
	return false
}

// moduleStatePath is the synthetic processed-view row carrying the
// whole-module result; it is not a file on disk (real rows are
// extension-addressed relative paths, which this can never be).
const moduleStatePath = "(module)"

// analyzeModule runs the whole-module Go analysis and records it in the
// synthetic module row only: its status, procedure count and module
// content hash. No request names a whole module, so nothing is
// installed in the target's cache. Every run is an analysis: "cold"
// the first time, "full" after that. The row is written before the
// run is counted, so a reader that sees Analyses advance sees the row.
func (ix *Indexer) analyzeModule() {
	ix.mu.Lock()
	old := ix.files[moduleStatePath]
	ix.mu.Unlock()
	st := &store.FileState{Path: moduleStatePath, Lang: "go-module", Status: "ok", Mode: "full"}
	if old == nil {
		st.Mode = "cold"
	}
	res, err := sideeffect.AnalyzeGoModule(context.Background(), []string{filepath.Join(ix.cfg.Root, "...")}, ix.cfg.Opts)
	if err != nil {
		ix.fail(st, err)
		ix.setState(moduleStatePath, st)
		return
	}
	st.Key, st.Procs = res.Pkg.Hash, len(res.Analysis.Procedures())
	ix.setState(moduleStatePath, st)
	ix.bumpAnalysis(st.Mode)
}

// processFile absorbs one created or modified file.
func (ix *Indexer) processFile(path string, deletedKeys map[string]string, deletedStates map[string]*store.FileState, renamed map[string]bool) {
	lang, ok := ix.exts[filepath.Ext(path)]
	if !ok {
		return
	}
	data, err := os.ReadFile(filepath.Join(ix.cfg.Root, filepath.FromSlash(path)))
	if err != nil {
		return // raced a deletion; the next scan records it
	}
	src := string(data)
	key := store.Key(lang, src)

	ix.mu.Lock()
	old := ix.files[path]
	fp := ix.seen[path]
	ix.mu.Unlock()
	if old != nil && old.Key == key && old.Status == "ok" {
		// Touched but content-identical: refresh the stat fingerprint only.
		ix.setState(path, &store.FileState{Path: path, Lang: lang, Key: key,
			Size: fp.size, ModTimeNs: fp.modTimeNs,
			Status: "ok", Mode: old.Mode, Procs: old.Procs})
		return
	}

	st := &store.FileState{Path: path, Lang: lang, Key: key, Size: fp.size, ModTimeNs: fp.modTimeNs, Status: "ok"}
	if oldPath, ok := deletedKeys[key]; ok && ix.target.HasEntry(key) {
		// A file deleted in this batch reappeared elsewhere with the same
		// content: a rename. Content addressing means zero re-analysis.
		renamed[oldPath] = true
		st.Mode = "warm"
		if prev := deletedStates[oldPath]; prev != nil {
			st.Procs = prev.Procs
		}
		ix.bumpWarm()
		ix.setState(path, st)
		return
	}
	if ix.target.HasEntry(key) {
		// Already-known content (a restart over unchanged sources, or a
		// revert to a previously indexed version): warm, nothing to run.
		st.Mode = "warm"
		if old != nil {
			st.Procs = old.Procs
		}
		ix.bumpWarm()
		ix.setState(path, st)
		return
	}

	switch lang {
	case "minipl":
		ix.analyzeMiniPL(path, src, key, old != nil, st)
	case "go":
		if ix.cfg.GoModule {
			// Folded into the batch's one whole-module pass; the row
			// just tracks the file's fingerprint.
			st.Mode = "module"
		} else {
			ix.analyzeGo(path, src, key, old != nil, st)
		}
	}
	ix.setState(path, st)
}

// analyzeMiniPL runs (or incrementally updates) the MiniPL analysis
// for path and installs the rendered snapshot.
func (ix *Indexer) analyzeMiniPL(path, src, key string, known bool, st *store.FileState) {
	sess := ix.sessions.get(path)
	var mode string
	if sess != nil {
		em, err := sess.Edit(src)
		if err != nil {
			// The session keeps the last good analysis, so the file's
			// next additive change is still incremental.
			ix.fail(st, err)
			return
		}
		mode = em.String()
	} else {
		var err error
		sess, err = sideeffect.NewSession(src, ix.cfg.Opts)
		if err != nil {
			ix.fail(st, err)
			return
		}
		ix.sessions.put(path, sess)
		mode = "full"
		if !known {
			mode = "cold"
		}
	}
	a := sess.Analysis()
	snap, err := store.BuildEntry(a, key, "minipl", nil, "")
	if err != nil {
		ix.fail(st, err)
		return
	}
	if err := ix.target.InstallSnapshot(snap); err != nil {
		ix.fail(st, err)
		return
	}
	st.Mode = mode
	st.Procs = len(a.Procedures())
	ix.bumpAnalysis(mode)
}

// analyzeGo runs the Go frontend over path as a single-file package
// (the same lowering the server's lang=go endpoints use, so the cache
// key and rendered bytes match) and installs the snapshot.
func (ix *Indexer) analyzeGo(path, src, key string, known bool, st *store.FileState) {
	res, err := sideeffect.AnalyzeGoSource(context.Background(), "source.go", src, ix.cfg.Opts)
	if err != nil {
		ix.fail(st, err)
		return
	}
	snap, err := store.BuildEntry(res.Analysis, key, "go", res.Pkg.Notes, res.Pkg.ConfidenceReport())
	if err != nil {
		ix.fail(st, err)
		return
	}
	if err := ix.target.InstallSnapshot(snap); err != nil {
		ix.fail(st, err)
		return
	}
	mode := "full"
	if !known {
		mode = "cold"
	}
	st.Mode = mode
	st.Procs = len(res.Analysis.Procedures())
	ix.bumpAnalysis(mode)
}

func (ix *Indexer) fail(st *store.FileState, err error) {
	st.Status = "error"
	st.Error = err.Error()
	st.Mode = ""
	ix.mu.Lock()
	ix.stats.Errors++
	ix.mu.Unlock()
	ix.logf("indexer: %s: %v", st.Path, err)
}

func (ix *Indexer) setState(path string, st *store.FileState) {
	ix.mu.Lock()
	ix.files[path] = st
	ix.stats.Files = len(ix.files)
	ix.mu.Unlock()
}

func (ix *Indexer) bumpWarm() {
	ix.mu.Lock()
	ix.stats.Warm++
	ix.mu.Unlock()
}

func (ix *Indexer) bumpAnalysis(mode string) {
	ix.mu.Lock()
	ix.stats.Analyses++
	if mode == "incremental" {
		ix.stats.IncrementalEdits++
	} else {
		ix.stats.FullReanalyses++
	}
	ix.mu.Unlock()
}

// sessionTable is the bounded LRU of per-file MiniPL sessions kept so
// repeated edits to the same file can take the incremental path. It
// is only touched from the watch loop (plus clear after the loop
// exits), so a plain mutex around map+order suffices.
type sessionTable struct {
	mu    sync.Mutex
	max   int
	order []string // least recently used first
	m     map[string]*sideeffect.Session
}

func newSessionTable(max int) *sessionTable {
	return &sessionTable{max: max, m: make(map[string]*sideeffect.Session)}
}

func (t *sessionTable) get(path string) *sideeffect.Session {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.m[path]
	if !ok {
		return nil
	}
	t.bump(path)
	return s
}

func (t *sessionTable) put(path string, s *sideeffect.Session) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[path]; ok {
		t.m[path] = s
		t.bump(path)
		return
	}
	t.m[path] = s
	t.order = append(t.order, path)
	for len(t.m) > t.max {
		victim := t.order[0]
		t.order = t.order[1:]
		delete(t.m, victim)
	}
}

func (t *sessionTable) drop(path string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.m[path]; ok {
		delete(t.m, path)
		t.remove(path)
	}
}

// clear drops every session, so a stopped indexer holds no analyses.
func (t *sessionTable) clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m = make(map[string]*sideeffect.Session)
	t.order = nil
}

func (t *sessionTable) bump(path string) {
	t.remove(path)
	t.order = append(t.order, path)
}

func (t *sessionTable) remove(path string) {
	for i, p := range t.order {
		if p == path {
			t.order = append(t.order[:i], t.order[i+1:]...)
			return
		}
	}
}
