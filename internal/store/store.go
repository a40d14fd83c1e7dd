// Package store is the persistence layer under the watch-mode
// indexer: it serializes the serving layer's warm state — the
// content-addressed cache's rendered answers, open incremental
// sessions, and the indexer's file table — to an on-disk state
// directory, so a restarted daemon answers its first query for
// unchanged sources from the persisted snapshot instead of
// recomputing.
//
// The paper's programming-environment pitch is that linear-time
// MOD/USE is cheap enough "to be performed routinely in response to
// program changes"; this package supplies the missing durability half
// of that posture. Its contract is deliberately asymmetric:
//
//   - a checkpoint may always be *missing* or *stale* (the serving
//     layer simply cold-starts or recomputes on demand), but
//   - a checkpoint must never produce a *wrong* answer.
//
// Saves are therefore atomic and crash-safe — the checkpoint is
// written to a temporary file, fsynced, and renamed over the previous
// one, so a crash mid-write leaves the previous snapshot intact — and
// loads verify a versioned magic header plus a SHA-256 payload
// checksum before decoding; any damage (truncation, bit rot, a
// partial write from a dying process) degrades to ErrCorrupt and a
// clean cold start.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// magic is the versioned file header. Bump the trailing version byte
// when the Checkpoint schema changes incompatibly; a reader seeing an
// unknown version treats the file as unusable (cold start), never as
// decodable data.
const magic = "MODANDCKPT\x00\x01"

// checkpointFile is the snapshot's name inside the state directory;
// tempFile is the in-progress write the rename protocol publishes.
const (
	checkpointFile = "checkpoint.bin"
	tempFile       = "checkpoint.tmp"
)

// ErrCorrupt marks a checkpoint file that exists but cannot be
// trusted: bad magic, unknown version, truncation, checksum mismatch,
// or an undecodable payload. Callers must treat it as "no checkpoint"
// (cold start), never as a fatal error.
var ErrCorrupt = errors.New("store: corrupt checkpoint")

// Checkpoint is one serialized snapshot of a daemon's warm state.
type Checkpoint struct {
	// SavedUnixNs records when the snapshot was taken.
	SavedUnixNs int64
	// Entries are the rendered content-addressed cache entries.
	Entries []*EntrySnapshot
	// Sessions are the open incremental sessions' sources and
	// counters; NextSession continues the id sequence so restored ids
	// never collide with new ones.
	Sessions    []SessionSnapshot
	NextSession int
	// Index is the watch-mode file table, when an indexer was
	// attached; nil otherwise.
	Index *IndexState
}

// SessionSnapshot persists one open session. The analysis itself is
// rebuilt from Source on restore (a session absorbs later edits from
// its Analysis, so its state cannot be served from rendered data the
// way cache entries can).
type SessionSnapshot struct {
	ID     string
	Source string
	// Edits / Incremental / Full are the session's absorbed-edit
	// counters, carried across the restart for observability.
	Edits       int
	Incremental int
	Full        int
}

// IndexState is the watch-mode indexer's persisted file table.
type IndexState struct {
	// Root is the watched directory the table was built over.
	Root string
	// Files is the per-file state, sorted by path.
	Files []FileState
}

// FileState is one watched file's index record: a row of the
// indexer's table, of its checkpoint (gob, which keys on the field
// names) and of /index/files (JSON).
type FileState struct {
	// Path is slash-separated, relative to the watched root.
	Path string `json:"path"`
	// Lang is "minipl", "go" or "go-module".
	Lang string `json:"lang"`
	// Key is the content-addressed cache key of the file's content.
	Key string `json:"key"`
	// Size and ModTimeNs are the stat fingerprint of the last indexed
	// content, used to skip unchanged files on restart.
	Size      int64 `json:"size"`
	ModTimeNs int64 `json:"modTimeNs"`
	// Status is "ok" or "error"; Error carries the message when
	// Status is "error".
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	// Mode records how the file was last brought up to date: "cold"
	// (first analysis), "incremental" (additive Session edit), "full"
	// (non-additive reanalysis), "warm" (content already indexed — a
	// restart, rename, or duplicate content) or "module" (folded into
	// the whole-module pass); "" while errored.
	Mode string `json:"mode,omitempty"`
	// Procs is the analyzed program's procedure count (0 on error).
	Procs int `json:"procs"`
}

// SaveStats reports one completed checkpoint write.
type SaveStats struct {
	// Bytes is the checkpoint file's size; Duration the end-to-end
	// encode+fsync+rename wall time.
	Bytes    int64
	Duration time.Duration
	Entries  int
	Sessions int
}

// Store is a handle on one state directory.
type Store struct {
	dir string

	// failAfterTemp, when set, aborts Save after the temporary file is
	// written but before the rename — simulating a process killed
	// mid-checkpoint. Tests use it to pin the crash-safety of the
	// rename protocol; production code never sets it.
	failAfterTemp bool
}

// Open prepares dir as a state directory, creating it if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

// Path returns the checkpoint file's path.
func (s *Store) Path() string { return filepath.Join(s.dir, checkpointFile) }

// Save atomically replaces the checkpoint with cp: encode to a
// temporary file, fsync it, rename over the previous checkpoint, and
// fsync the directory so the rename itself is durable. A crash at any
// point leaves either the old snapshot or the new one — never a
// partial file under the checkpoint name.
func (s *Store) Save(cp *Checkpoint) (SaveStats, error) {
	start := time.Now()
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(cp); err != nil {
		return SaveStats{}, fmt.Errorf("store: encode: %w", err)
	}
	sum := sha256.Sum256(payload.Bytes())

	var file bytes.Buffer
	file.WriteString(magic)
	var lenBuf [8]byte
	binary.BigEndian.PutUint64(lenBuf[:], uint64(payload.Len()))
	file.Write(lenBuf[:])
	file.Write(sum[:])
	file.Write(payload.Bytes())

	tmp := filepath.Join(s.dir, tempFile)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return SaveStats{}, fmt.Errorf("store: %w", err)
	}
	if _, err := f.Write(file.Bytes()); err != nil {
		f.Close()
		return SaveStats{}, fmt.Errorf("store: write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return SaveStats{}, fmt.Errorf("store: fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return SaveStats{}, fmt.Errorf("store: close: %w", err)
	}
	if s.failAfterTemp {
		return SaveStats{}, fmt.Errorf("store: simulated crash before rename")
	}
	if err := os.Rename(tmp, s.Path()); err != nil {
		return SaveStats{}, fmt.Errorf("store: publish: %w", err)
	}
	syncDir(s.dir)
	return SaveStats{
		Bytes:    int64(file.Len()),
		Duration: time.Since(start),
		Entries:  len(cp.Entries),
		Sessions: len(cp.Sessions),
	}, nil
}

// syncDir fsyncs a directory so a just-completed rename survives power
// loss. Best-effort: some filesystems reject directory fsync, and the
// rename is already atomic with respect to crashes of this process.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// Load reads the checkpoint. A missing file returns (nil, nil) — a
// clean cold start. Any damage returns an error wrapping ErrCorrupt;
// callers log it and cold-start, they never fail.
func (s *Store) Load() (*Checkpoint, error) {
	data, err := os.ReadFile(s.Path())
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	header := len(magic) + 8 + sha256.Size
	if len(data) < header {
		return nil, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorrupt, len(data))
	}
	if string(data[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic or unknown version", ErrCorrupt)
	}
	want := binary.BigEndian.Uint64(data[len(magic) : len(magic)+8])
	sum := data[len(magic)+8 : header]
	payload := data[header:]
	if uint64(len(payload)) != want {
		return nil, fmt.Errorf("%w: payload is %d bytes, header promised %d", ErrCorrupt, len(payload), want)
	}
	if got := sha256.Sum256(payload); !bytes.Equal(got[:], sum) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	cp := new(Checkpoint)
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(cp); err != nil {
		return nil, fmt.Errorf("%w: decode: %v", ErrCorrupt, err)
	}
	return cp, nil
}
