package indexer

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"sideeffect/internal/faultinject"
	"sideeffect/internal/store"
)

const idxSrc = `
program incr;
global g, h;

proc leaf(ref x)
begin
  x := 1
end;

proc mid(ref y)
begin
  call leaf(y)
end;

begin
  call mid(g)
end.
`

const idxGoSrc = `package p

var counter int

func Bump(p *int) { *p++; counter++ }
`

// fakeTarget records installed snapshots, standing in for the server.
type fakeTarget struct {
	mu       sync.Mutex
	entries  map[string]*store.EntrySnapshot
	installs int
}

func newFakeTarget() *fakeTarget {
	return &fakeTarget{entries: make(map[string]*store.EntrySnapshot)}
}

func (f *fakeTarget) InstallSnapshot(snap *store.EntrySnapshot) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.entries[snap.Key] = snap
	f.installs++
	return nil
}

func (f *fakeTarget) HasEntry(key string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.entries[key]
	return ok
}

func (f *fakeTarget) installCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.installs
}

// fastConfig is tuned so watcher tests converge in tens of
// milliseconds: scans every 2ms, batches after an 8ms quiet window.
func fastConfig(root string) Config {
	return Config{Root: root, Poll: 2 * time.Millisecond, Debounce: 8 * time.Millisecond}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func startIndexer(t *testing.T, cfg Config, target Target) *Indexer {
	t.Helper()
	ix := New(cfg, target)
	ix.Start()
	t.Cleanup(ix.Stop)
	return ix
}

// TestIndexColdStart covers the basic path: files already on disk are
// indexed on the first scan and their rendered snapshots installed
// under the same keys the server's request handlers derive.
func TestIndexColdStart(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "a.mpl"), idxSrc)
	writeFile(t, filepath.Join(dir, "b.go"), idxGoSrc)
	ft := newFakeTarget()
	ix := startIndexer(t, fastConfig(dir), ft)

	waitFor(t, "both files indexed", func() bool { return ix.Stats().Analyses == 2 })
	if !ft.HasEntry(store.Key("minipl", idxSrc)) {
		t.Error("MiniPL snapshot not installed under the server's key")
	}
	if !ft.HasEntry(store.Key("go", idxGoSrc)) {
		t.Error("Go snapshot not installed under the server's namespaced key")
	}
	st := ix.Stats()
	if st.Files != 2 || st.FullReanalyses != 2 || st.IncrementalEdits != 0 {
		t.Errorf("stats = %+v, want 2 files, 2 cold analyses", st)
	}
	files, ok := ix.Files().([]store.FileState)
	if !ok || len(files) != 2 {
		t.Fatalf("Files() = %#v, want 2 rows", ix.Files())
	}
	if files[0].Path != "a.mpl" || files[0].Mode != "cold" || files[0].Procs != 3 {
		t.Errorf("a.mpl row = %+v, want mode cold, 3 procs", files[0])
	}
}

// TestDebounceCoalescesBursts pins that an edit burst lands as one
// batch analyzing only the final content — not one analysis per write.
func TestDebounceCoalescesBursts(t *testing.T) {
	dir := t.TempDir()
	ft := newFakeTarget()
	cfg := fastConfig(dir)
	cfg.Debounce = 150 * time.Millisecond
	ix := startIndexer(t, cfg, ft)
	waitFor(t, "first scan", func() bool { return ix.Stats().Scans >= 1 })

	path := filepath.Join(dir, "burst.mpl")
	final := strings.Replace(idxSrc, "x := 1", "x := 1; h := g", 1)
	for i, content := range []string{idxSrc, strings.Replace(idxSrc, "x := 1", "x := 2", 1), final} {
		writeFile(t, path, content)
		if i < 2 {
			time.Sleep(20 * time.Millisecond) // well inside the quiet window
		}
	}
	waitFor(t, "burst batch", func() bool { return ix.Stats().Batches >= 1 })
	st := ix.Stats()
	if st.Analyses != 1 {
		t.Errorf("burst of 3 writes ran %d analyses, want 1 (coalesced)", st.Analyses)
	}
	if !ft.HasEntry(store.Key("minipl", final)) {
		t.Error("final burst content not installed")
	}
	if ft.HasEntry(store.Key("minipl", idxSrc)) {
		t.Error("intermediate burst content was analyzed; debounce failed")
	}
}

// TestAdditiveEditTakesIncrementalPath pins the Session.Edit wiring:
// an additive change to an already-indexed file is absorbed
// incrementally, a structural change forces full reanalysis, and both
// are observable in the counters.
func TestAdditiveEditTakesIncrementalPath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.mpl")
	writeFile(t, path, idxSrc)
	ft := newFakeTarget()
	ix := startIndexer(t, fastConfig(dir), ft)
	waitFor(t, "cold index", func() bool { return ix.Stats().Analyses == 1 })

	// Additive: a new assignment only adds local facts.
	additive := strings.Replace(idxSrc, "x := 1", "x := 1; h := g", 1)
	writeFile(t, path, additive)
	waitFor(t, "incremental edit", func() bool { return ix.Stats().IncrementalEdits == 1 })
	if !ft.HasEntry(store.Key("minipl", additive)) {
		t.Error("incrementally updated snapshot not installed")
	}

	// Structural: a new call site forces full reanalysis.
	structural := strings.Replace(additive, "call mid(g)", "call mid(g); call leaf(h)", 1)
	writeFile(t, path, structural)
	waitFor(t, "full reanalysis", func() bool { return ix.Stats().FullReanalyses == 2 })
	st := ix.Stats()
	if st.Analyses != 3 || st.IncrementalEdits != 1 {
		t.Errorf("stats = %+v, want 3 analyses of which 1 incremental", st)
	}
	files := ix.Files().([]store.FileState)
	if files[0].Mode != "full" {
		t.Errorf("after structural edit, mode = %q, want full", files[0].Mode)
	}
}

// TestFailedEditKeepsSession: a file whose edit fails to parse keeps
// its session at the last good analysis, so an additive fix after the
// error is absorbed incrementally rather than by a full reanalysis.
func TestFailedEditKeepsSession(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "prog.mpl")
	writeFile(t, path, idxSrc)
	ft := newFakeTarget()
	ix := startIndexer(t, fastConfig(dir), ft)
	waitFor(t, "cold index", func() bool { return ix.Stats().Analyses == 1 })

	writeFile(t, path, strings.Replace(idxSrc, "x := 1", "x := ", 1))
	waitFor(t, "failed edit", func() bool { return ix.Stats().Errors == 1 })

	fixed := strings.Replace(idxSrc, "x := 1", "x := 1; h := g", 1)
	writeFile(t, path, fixed)
	waitFor(t, "fix", func() bool { return ix.Stats().Analyses == 2 })
	if st := ix.Stats(); st.IncrementalEdits != 1 || st.FullReanalyses != 1 {
		t.Errorf("stats = %+v, want the fix absorbed incrementally", st)
	}
	files := ix.Files().([]store.FileState)
	if len(files) != 1 || files[0].Status != "ok" || files[0].Mode != "incremental" {
		t.Errorf("after the fix, table = %+v, want prog.mpl ok and incremental", files)
	}
	if !ft.HasEntry(store.Key("minipl", fixed)) {
		t.Error("the fix's snapshot was not installed")
	}
}

// TestDeleteLeavesNoGhost pins deletion tracking: a removed file
// disappears from the table instead of lingering as a stale result.
func TestDeleteLeavesNoGhost(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gone.mpl")
	writeFile(t, path, idxSrc)
	ft := newFakeTarget()
	ix := startIndexer(t, fastConfig(dir), ft)
	waitFor(t, "cold index", func() bool { return ix.Stats().Analyses == 1 })

	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "delete processed", func() bool { return ix.Stats().Deletes == 1 })
	if files := ix.Files().([]store.FileState); len(files) != 0 {
		t.Errorf("deleted file still listed: %+v", files)
	}
	if st := ix.Stats(); st.Files != 0 {
		t.Errorf("Files gauge = %d after delete, want 0", st.Files)
	}
}

// TestRenameIsWarm pins rename handling: moving a file is recognized
// by content address and costs zero re-analysis.
func TestRenameIsWarm(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "old.mpl")
	writeFile(t, old, idxSrc)
	ft := newFakeTarget()
	ix := startIndexer(t, fastConfig(dir), ft)
	waitFor(t, "cold index", func() bool { return ix.Stats().Analyses == 1 })

	if err := os.Rename(old, filepath.Join(dir, "new.mpl")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "rename processed", func() bool { return ix.Stats().Renames == 1 })
	st := ix.Stats()
	if st.Analyses != 1 {
		t.Errorf("rename triggered %d analyses, want the original 1 only", st.Analyses)
	}
	if st.Deletes != 0 {
		t.Errorf("rename counted as delete: %+v", st)
	}
	if st.Warm != 1 {
		t.Errorf("rename not counted warm: %+v", st)
	}
	files := ix.Files().([]store.FileState)
	if len(files) != 1 || files[0].Path != "new.mpl" || files[0].Mode != "warm" {
		t.Errorf("after rename, table = %+v, want new.mpl warm", files)
	}
	if files[0].Procs != 3 {
		t.Errorf("rename lost procedure count: %+v", files[0])
	}
}

// TestErrorFileTracked pins error handling: a file that fails to
// analyze is tracked with its message and does not poison the loop.
func TestErrorFileTracked(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "bad.mpl"), "this is not minipl")
	writeFile(t, filepath.Join(dir, "good.mpl"), idxSrc)
	ft := newFakeTarget()
	ix := startIndexer(t, fastConfig(dir), ft)
	waitFor(t, "batch", func() bool {
		st := ix.Stats()
		return st.Errors == 1 && st.Analyses == 1
	})
	files := ix.Files().([]store.FileState)
	if len(files) != 2 || files[0].Path != "bad.mpl" || files[0].Status != "error" || files[0].Error == "" {
		t.Errorf("error file not tracked: %+v", files)
	}
	if files[1].Status != "ok" {
		t.Errorf("good file affected by bad neighbor: %+v", files[1])
	}
	// Fixing the file clears the error on the next batch.
	writeFile(t, filepath.Join(dir, "bad.mpl"), idxGoSrcAsMiniPL())
	waitFor(t, "fixed", func() bool { return ix.Stats().Analyses == 2 })
	files = ix.Files().([]store.FileState)
	if files[0].Status != "ok" {
		t.Errorf("fixed file still errored: %+v", files[0])
	}
}

// TestInjectedPanicsFailFilesNotTheLoop: with a panic-only injector at
// rate 1 in Opts.Faults, a new .mpl file and a new .go file each come
// out as errors counted in Stats.Errors, and the watch loop survives to
// process a later batch.
func TestInjectedPanicsFailFilesNotTheLoop(t *testing.T) {
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "a.mpl"), idxSrc)
	writeFile(t, filepath.Join(dir, "b.go"), idxGoSrc)
	cfg := fastConfig(dir)
	cfg.Opts.Faults = faultinject.New(faultinject.Config{
		Rate: 1, Seed: 1, Kinds: []faultinject.Kind{faultinject.KindPanic},
	})
	ft := newFakeTarget()
	ix := startIndexer(t, cfg, ft)
	waitFor(t, "both files failed", func() bool { return ix.Stats().Errors == 2 })
	for _, f := range ix.Files().([]store.FileState) {
		if f.Status != "error" || !strings.Contains(f.Error, "panic") {
			t.Errorf("%s: status %q, error %q; want an injected-panic error", f.Path, f.Status, f.Error)
		}
	}
	batches := ix.Stats().Batches
	writeFile(t, filepath.Join(dir, "c.mpl"), idxGoSrcAsMiniPL())
	waitFor(t, "a later batch", func() bool {
		st := ix.Stats()
		return st.Batches > batches && st.Errors == 3
	})
	if n := ft.installCount(); n != 0 {
		t.Errorf("%d snapshots installed from failed analyses", n)
	}
}

// idxGoSrcAsMiniPL returns a second valid MiniPL program (distinct
// content from idxSrc).
func idxGoSrcAsMiniPL() string {
	return strings.Replace(idxSrc, "program incr", "program incrtwo", 1)
}

// TestRestoreStateSkipsUnchanged pins the restart path: with primed
// state and a target that already holds the entries, an unchanged tree
// produces no work at all — and a file edited while the daemon was
// down is re-processed.
func TestRestoreStateSkipsUnchanged(t *testing.T) {
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.mpl")
	pathB := filepath.Join(dir, "b.mpl")
	writeFile(t, pathA, idxSrc)
	writeFile(t, pathB, idxGoSrcAsMiniPL())
	ft := newFakeTarget()
	first := startIndexer(t, fastConfig(dir), ft)
	waitFor(t, "cold index", func() bool { return first.Stats().Analyses == 2 })
	first.Stop()
	state := first.ExportState()

	// Edit b while "down".
	editedB := strings.Replace(idxGoSrcAsMiniPL(), "x := 1", "x := 3", 1)
	writeFile(t, pathB, editedB)

	second := New(fastConfig(dir), ft)
	if n := second.RestoreState(state); n != 2 {
		t.Fatalf("RestoreState primed %d files, want 2", n)
	}
	second.Start()
	t.Cleanup(second.Stop)
	waitFor(t, "changed file reprocessed", func() bool { return second.Stats().Analyses == 1 })

	// Give the watcher a few more scans: the unchanged file must never
	// be touched.
	waitFor(t, "a few scans", func() bool { return second.Stats().Scans >= 5 })
	st := second.Stats()
	if st.Analyses != 1 {
		t.Errorf("restored watcher ran %d analyses, want 1 (only the edited file)", st.Analyses)
	}
	if st.Warm != 0 {
		t.Errorf("unchanged files re-touched (%d warm events), want none", st.Warm)
	}
	files := second.Files().([]store.FileState)
	if files[0].Path != "a.mpl" || files[0].Mode != "cold" {
		t.Errorf("unchanged file state not preserved: %+v", files[0])
	}
	if files[1].Mode != "full" {
		t.Errorf("edited-while-down file mode = %q, want full", files[1].Mode)
	}
}

// TestRestoreStateRejectsForeignRoot pins that state recorded for a
// different tree is ignored rather than misapplied.
func TestRestoreStateRejectsForeignRoot(t *testing.T) {
	ix := New(fastConfig(t.TempDir()), newFakeTarget())
	if n := ix.RestoreState(&store.IndexState{Root: "/somewhere/else",
		Files: []store.FileState{{Path: "x.mpl", Lang: "minipl"}}}); n != 0 {
		t.Errorf("foreign-root state primed %d files, want 0", n)
	}
}

// TestRevertIsWarm pins that reverting a file to previously indexed
// content is served from the target without re-analysis.
func TestRevertIsWarm(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rev.mpl")
	writeFile(t, path, idxSrc)
	ft := newFakeTarget()
	ix := startIndexer(t, fastConfig(dir), ft)
	waitFor(t, "cold index", func() bool { return ix.Stats().Analyses == 1 })

	edited := strings.Replace(idxSrc, "x := 1", "x := 9", 1)
	writeFile(t, path, edited)
	waitFor(t, "edit", func() bool { return ix.Stats().Analyses == 2 })

	writeFile(t, path, idxSrc) // revert
	waitFor(t, "revert", func() bool { return ix.Stats().Warm == 1 })
	if st := ix.Stats(); st.Analyses != 2 {
		t.Errorf("revert re-analyzed: %+v", st)
	}
}

// writeModule lays out a minimal two-package Go module under dir.
func writeModule(t *testing.T, dir string) {
	t.Helper()
	for _, sub := range []string{"util", "app"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	writeFile(t, filepath.Join(dir, "go.mod"), "module example.com/w\n\ngo 1.21\n")
	writeFile(t, filepath.Join(dir, "util", "u.go"),
		"package util\n\ntype C struct{ n int }\n\nfunc (c *C) Add(v int) { c.n += v }\n")
	writeFile(t, filepath.Join(dir, "app", "a.go"),
		"package app\n\nimport \"example.com/w/util\"\n\nvar G util.C\n\nfunc Rec(v int) { G.Add(v) }\n")
}

// TestModuleMode pins the go-module watcher: the whole module is
// analyzed as one batch under the synthetic "(module)" state, which
// records the module hash and installs nothing (no request names a
// whole module), and every later Go change, a revert to indexed
// content included, re-analyzes the module exactly once.
func TestModuleMode(t *testing.T) {
	dir := t.TempDir()
	writeModule(t, dir)
	ft := newFakeTarget()
	cfg := fastConfig(dir)
	cfg.GoModule = true
	ix := startIndexer(t, cfg, ft)

	waitFor(t, "cold module analysis", func() bool { return ix.Stats().Analyses == 1 })
	mod := moduleState(t, ix)
	if mod.Lang != "go-module" || mod.Mode != "cold" || mod.Procs == 0 || mod.Key == "" {
		t.Errorf("module state = %+v, want go-module/cold with procs and a hash", mod)
	}
	if ft.HasEntry(mod.Key) {
		t.Error("module analysis installed a cache entry")
	}
	coldKey := mod.Key

	// An edit to any module file re-analyzes the whole module once.
	edited := "package util\n\ntype C struct{ n int }\n\nfunc (c *C) Add(v int) { c.n += v }\n\nfunc (c *C) Get() int { return c.n }\n"
	writeFile(t, filepath.Join(dir, "util", "u.go"), edited)
	waitFor(t, "module re-analysis", func() bool { return ix.Stats().Analyses == 2 })

	// Reverting restores the previous module hash, and is analysis 3.
	writeFile(t, filepath.Join(dir, "util", "u.go"),
		"package util\n\ntype C struct{ n int }\n\nfunc (c *C) Add(v int) { c.n += v }\n")
	waitFor(t, "module revert analysis", func() bool { return ix.Stats().Analyses == 3 })
	if mod := moduleState(t, ix); mod.Mode != "full" || mod.Key != coldKey {
		t.Errorf("module state after the revert = %+v, want mode full and the cold run's hash %s", mod, coldKey)
	}
	if st := ix.Stats(); st.Warm != 0 {
		t.Errorf("module runs counted warm: %+v", st)
	}
}

// moduleState returns the indexer's synthetic module row.
func moduleState(t *testing.T, ix *Indexer) store.FileState {
	t.Helper()
	for _, f := range ix.Files().([]store.FileState) {
		if f.Path == moduleStatePath {
			return f
		}
	}
	t.Fatalf("no %q row", moduleStatePath)
	return store.FileState{}
}

// TestModuleModeRestore pins the restart path: the synthetic module
// entry survives RestoreState and the first scans (it is not a disk
// file, so the deletion sweep must not discard it), and an unchanged
// tree runs no analysis at all.
func TestModuleModeRestore(t *testing.T) {
	dir := t.TempDir()
	writeModule(t, dir)
	ft := newFakeTarget()
	cfg := fastConfig(dir)
	cfg.GoModule = true
	first := startIndexer(t, cfg, ft)
	waitFor(t, "cold module analysis", func() bool { return first.Stats().Analyses == 1 })
	first.Stop()
	state := first.ExportState()

	second := New(cfg, ft)
	if n := second.RestoreState(state); n != 3 {
		t.Fatalf("RestoreState primed %d entries, want 3 (2 files + module)", n)
	}
	second.Start()
	t.Cleanup(second.Stop)
	waitFor(t, "a few scans", func() bool { return second.Stats().Scans >= 5 })
	if st := second.Stats(); st.Analyses != 0 {
		t.Errorf("restored watcher ran %d analyses on an unchanged tree, want 0", st.Analyses)
	}
	found := false
	for _, f := range second.Files().([]store.FileState) {
		if f.Path == moduleStatePath {
			found = true
		}
	}
	if !found {
		t.Error("synthetic module entry lost across restore + scan")
	}
	if st := second.ExportState(); len(st.Files) != 3 {
		t.Errorf("re-exported state has %d entries, want 3", len(st.Files))
	}
}
