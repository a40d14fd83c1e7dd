// Package indexer implements the watch-mode persistent indexer: a
// daemon-side loop that keeps a directory tree's analyses warm. It
// polls the tree for changes (stdlib-only stat fingerprints — no
// platform watcher dependency), debounces edit bursts into batches,
// classifies each change as additive-incremental or full-reanalysis,
// renders the result through the same pipeline the server uses, and
// installs it into the server's content-addressed cache so the first
// /analyze or /lint for that content is a warm hit.
//
// The package knows the server only through the Target interface, and
// the server knows the indexer only through its IndexView-shaped
// methods (Status, Files, MetricsLines) — the dependency between the
// two stays one-way in each direction, through interfaces.
package indexer

import (
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"sideeffect"
	"sideeffect/internal/store"
)

// Target is where the indexer publishes rendered results: the serving
// layer's snapshot hooks. InstallSnapshot makes future requests for
// the entry's content warm hits; HasEntry lets the indexer classify
// renames and restart-unchanged files as warm without re-analyzing.
type Target interface {
	InstallSnapshot(*store.EntrySnapshot) error
	HasEntry(key string) bool
}

// Config shapes one indexer.
type Config struct {
	// Root is the directory tree to watch.
	Root string
	// Langs selects which frontends index which extensions: "minipl"
	// claims .mpl files, "go" claims .go files. Empty means both.
	Langs []string
	// Poll is the scan interval; Debounce is how long the tree must be
	// quiet after the last detected change before a batch is processed
	// (so an edit burst coalesces into one batch).
	Poll     time.Duration
	Debounce time.Duration
	// MaxSessions bounds the per-file MiniPL session table used to
	// classify edits as incremental; least recently edited files fall
	// back to full reanalysis when evicted.
	MaxSessions int
	// GoModule switches the Go frontend to whole-module indexing: a
	// batch touching any .go file triggers one shared-program analysis
	// of the module rooted at Root (cross-package calls resolved,
	// closed interfaces devirtualized) instead of per-file
	// single-package lowerings. No request names a whole module, so
	// the result is installed nowhere: the synthetic "(module)" row
	// records its status, procedure count and module content hash, and
	// a restart over an unchanged tree, which raises no event, runs no
	// analysis.
	GoModule bool
	// Opts configures the analyses the indexer runs. Profiling is
	// forced off: indexer work must never move the server's per-stage
	// timers, which meter request-path computation only.
	Opts sideeffect.Options
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Poll <= 0 {
		c.Poll = 250 * time.Millisecond
	}
	if c.Debounce <= 0 {
		c.Debounce = 500 * time.Millisecond
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 64
	}
	c.Opts.Profile = false
}

// Stats are the indexer's monotonic counters (plus the Files gauge),
// exposed for tests, served on /index/status and rendered into
// /metrics.
type Stats struct {
	Files            int   `json:"files"`
	Scans            int64 `json:"scans"`
	Batches          int64 `json:"batches"`
	Analyses         int64 `json:"analyses"`
	IncrementalEdits int64 `json:"incrementalEdits"`
	FullReanalyses   int64 `json:"fullReanalyses"`
	Warm             int64 `json:"warm"`
	Deletes          int64 `json:"deletes"`
	Renames          int64 `json:"renames"`
	Errors           int64 `json:"errors"`
}

// statFP is a file's cheap change fingerprint.
type statFP struct {
	size      int64
	modTimeNs int64
}

// Indexer is one watch loop over one directory tree.
type Indexer struct {
	cfg    Config
	target Target
	exts   map[string]string // ".mpl" → "minipl", ".go" → "go" (enabled langs only)

	mu         sync.Mutex
	files      map[string]*store.FileState // processed view, keyed by relative path
	seen       map[string]statFP           // last-scan stat per path (change detection)
	stats      Stats
	watching   bool
	lastScanNs int64

	sessions *sessionTable

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
}

// New builds an indexer over cfg.Root publishing into target. Call
// Start to begin watching.
func New(cfg Config, target Target) *Indexer {
	cfg.fill()
	exts := map[string]string{}
	langs := cfg.Langs
	if len(langs) == 0 {
		langs = []string{"minipl", "go"}
	}
	for _, l := range langs {
		switch strings.TrimSpace(l) {
		case "minipl":
			exts[".mpl"] = "minipl"
		case "go":
			exts[".go"] = "go"
		}
	}
	return &Indexer{
		cfg:      cfg,
		target:   target,
		exts:     exts,
		files:    make(map[string]*store.FileState),
		seen:     make(map[string]statFP),
		sessions: newSessionTable(cfg.MaxSessions),
	}
}

func (ix *Indexer) logf(format string, args ...any) {
	if ix.cfg.Logf != nil {
		ix.cfg.Logf(format, args...)
	}
}

// Start launches the watch loop. The first scan runs immediately, so
// files already on disk are indexed (or recognized as warm after a
// restore) without waiting a poll interval.
func (ix *Indexer) Start() {
	ix.mu.Lock()
	ix.watching = true
	ix.mu.Unlock()
	ix.stop = make(chan struct{})
	ix.done = make(chan struct{})
	go ix.loop()
}

// Stop shuts the loop down, processing any still-pending batch first
// so the state exported afterward reflects what is on disk. It then
// drops every classification session. Idempotent.
func (ix *Indexer) Stop() {
	if ix.stop == nil {
		return
	}
	ix.stopOnce.Do(func() { close(ix.stop) })
	<-ix.done
	ix.sessions.clear()
	ix.mu.Lock()
	ix.watching = false
	ix.mu.Unlock()
}

// loop is the watcher: poll-scan for changes, debounce, process.
// Debounce is measured from the last *detected* change, so a burst of
// edits keeps extending the quiet window and lands as one batch.
func (ix *Indexer) loop() {
	defer close(ix.done)
	ticker := time.NewTicker(ix.cfg.Poll)
	defer ticker.Stop()
	pending := newBatch()
	var lastEvent time.Time
	if ix.scanInto(pending) > 0 {
		lastEvent = time.Now()
	}
	for {
		if !pending.empty() && time.Since(lastEvent) >= ix.cfg.Debounce {
			ix.process(pending)
			pending = newBatch()
		}
		select {
		case <-ix.stop:
			if !pending.empty() {
				ix.process(pending)
			}
			return
		case <-ticker.C:
			if ix.scanInto(pending) > 0 {
				lastEvent = time.Now()
			}
		}
	}
}

// batch accumulates detected-but-unprocessed changes between scans.
type batch struct {
	changed map[string]struct{} // created or modified, by relative path
	deleted map[string]struct{}
}

func newBatch() *batch {
	return &batch{changed: make(map[string]struct{}), deleted: make(map[string]struct{})}
}

func (b *batch) empty() bool { return len(b.changed) == 0 && len(b.deleted) == 0 }

// scanInto walks the tree once, folding stat-level changes since the
// previous scan into pending. It returns how many new events it
// detected (zero means the tree is quiet). Hidden directories (".git",
// state dirs) are skipped.
func (ix *Indexer) scanInto(pending *batch) int {
	present := make(map[string]statFP)
	filepath.WalkDir(ix.cfg.Root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable subtree: treat as absent
		}
		if d.IsDir() {
			if name := d.Name(); path != ix.cfg.Root && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if _, ok := ix.exts[filepath.Ext(path)]; !ok {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		rel, err := filepath.Rel(ix.cfg.Root, path)
		if err != nil {
			return nil
		}
		present[filepath.ToSlash(rel)] = statFP{size: info.Size(), modTimeNs: info.ModTime().UnixNano()}
		return nil
	})

	ix.mu.Lock()
	defer ix.mu.Unlock()
	ix.stats.Scans++
	ix.lastScanNs = time.Now().UnixNano()
	events := 0
	for path, fp := range present {
		if old, ok := ix.seen[path]; !ok || old != fp {
			ix.seen[path] = fp
			pending.changed[path] = struct{}{}
			delete(pending.deleted, path)
			events++
		}
	}
	for path := range ix.seen {
		if _, ok := present[path]; !ok {
			delete(ix.seen, path)
			delete(pending.changed, path)
			pending.deleted[path] = struct{}{}
			events++
		}
	}
	return events
}

// sortedPaths returns m's keys sorted, for deterministic processing.
func sortedPaths[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
