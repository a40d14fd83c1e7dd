package server

import (
	"time"

	"sideeffect"
	"sideeffect/internal/store"
)

// This file is the server half of the persistence layer: exporting
// the warm state (cached analyses + open sessions) into a
// store.Checkpoint, and importing one back after a restart so the
// first query for unchanged sources is served from the persisted
// snapshot — a measured warm start — instead of recomputing.

// ExportCheckpoint renders the server's warm state to pure data.
// Live cache entries are rendered through store.BuildEntry (the same
// renderers every request uses, so restored answers stay
// byte-identical); already-snapshot-backed entries round-trip as-is.
// Open sessions persist as (id, source, counters) — their analyses
// are rebuilt on import, because a session absorbs future edits from
// its live Analysis. Entries that fail to render (only
// possible under fault injection) are skipped: a checkpoint may be
// incomplete, never wrong.
//
// Rendering runs outside the cache lock on the snapshotted entries, so
// serving continues unblocked — checkpointing is a background
// activity, not a stop-the-world one.
func (s *Server) ExportCheckpoint() *store.Checkpoint {
	cp := &store.Checkpoint{SavedUnixNs: time.Now().UnixNano()}
	for _, kv := range s.cache.Snapshot() {
		e := kv.Val
		snap := e.snap
		if snap == nil {
			var err error
			snap, err = store.BuildEntry(e.a, kv.Key, e.lang, e.notes, e.conf)
			if err != nil {
				continue
			}
		}
		cp.Entries = append(cp.Entries, snap)
	}
	cp.Sessions, cp.NextSession = s.sessions.export()
	return cp
}

// ImportCheckpoint installs a restored checkpoint: every entry
// becomes a snapshot-backed cache entry (no analysis runs, no stage
// timers fire), and every session is rebuilt from its persisted
// source under the server's options, fault injector included. It
// returns how many of each were restored; undecodable entries and
// sessions whose source no longer analyzes (or whose analysis trips
// the injector) are skipped rather than failing the restore.
func (s *Server) ImportCheckpoint(cp *store.Checkpoint) (entries, sessions int) {
	if cp == nil {
		return 0, 0
	}
	for _, snap := range cp.Entries {
		if snap == nil || snap.Key == "" {
			continue
		}
		e, err := newCachedSnap(snap)
		if err != nil {
			continue
		}
		s.cache.Put(snap.Key, e)
		entries++
	}
	s.sessions.advance(cp.NextSession)
	for _, ss := range cp.Sessions {
		sess, err := sideeffect.NewSession(ss.Source, s.opts)
		if err != nil {
			continue
		}
		if !s.sessions.restore(ss, sess) {
			continue
		}
		sessions++
	}
	s.met.warmLoaded(int64(entries))
	return entries, sessions
}

// InstallSnapshot inserts one rendered entry into the content-
// addressed cache (the watch-mode indexer's publish hook: after
// indexing a file it installs the rendered result so /analyze and
// /lint for that content are warm hits).
func (s *Server) InstallSnapshot(snap *store.EntrySnapshot) error {
	e, err := newCachedSnap(snap)
	if err != nil {
		return err
	}
	s.cache.Put(snap.Key, e)
	return nil
}

// HasEntry reports whether the cache currently holds key, without
// disturbing recency or counters. The indexer uses it to classify
// renames and restart-unchanged files as warm.
func (s *Server) HasEntry(key string) bool { return s.cache.Contains(key) }

// NoteCheckpoint records a completed checkpoint write in /metrics.
func (s *Server) NoteCheckpoint(st store.SaveStats) {
	s.met.checkpointed(st.Bytes, st.Duration.Seconds())
}
