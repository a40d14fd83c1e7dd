package store

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sideeffect"
	"sideeffect/internal/cache"
)

const testSrc = `
program storetest;
global g, h;

proc leaf(ref x)
begin
  x := h
end;

proc mid(ref y)
begin
  call leaf(y)
end;

begin
  call mid(g)
end.
`

// testCheckpoint builds a small but fully populated checkpoint: one
// rendered entry, one session, one index record.
func testCheckpoint(t *testing.T) *Checkpoint {
	t.Helper()
	a, err := sideeffect.Analyze(testSrc)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	key := cache.Key(testSrc)
	snap, err := BuildEntry(a, key, "minipl", nil, "")
	if err != nil {
		t.Fatalf("BuildEntry: %v", err)
	}
	return &Checkpoint{
		SavedUnixNs: 12345,
		Entries:     []*EntrySnapshot{snap},
		Sessions: []SessionSnapshot{
			{ID: "s-3", Source: testSrc, Edits: 4, Incremental: 3, Full: 1},
		},
		NextSession: 7,
		Index: &IndexState{
			Root: "/tmp/watched",
			Files: []FileState{{
				Path: "main.mpl", Lang: "minipl", Key: key,
				Size: int64(len(testSrc)), ModTimeNs: 99, Status: "ok",
				Mode: "cold", Procs: 2,
			}},
		},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cp := testCheckpoint(t)
	stats, err := st.Save(cp)
	if err != nil {
		t.Fatalf("Save: %v", err)
	}
	if stats.Bytes <= 0 || stats.Entries != 1 || stats.Sessions != 1 {
		t.Fatalf("stats = %+v, want bytes>0, 1 entry, 1 session", stats)
	}
	got, err := st.Load()
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, cp)
	}
	if _, err := os.Stat(filepath.Join(st.Dir(), tempFile)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("temp file left behind after successful save")
	}
}

func TestLoadMissingIsCleanColdStart(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	cp, err := st.Load()
	if cp != nil || err != nil {
		t.Fatalf("Load on empty dir = (%v, %v), want (nil, nil)", cp, err)
	}
}

// TestLoadCorruption pins that every class of on-disk damage degrades
// to ErrCorrupt — never a decode of garbage, never a fatal error class
// the daemon would refuse to start over.
func TestLoadCorruption(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if _, err := st.Save(testCheckpoint(t)); err != nil {
		t.Fatalf("Save: %v", err)
	}
	pristine, err := os.ReadFile(st.Path())
	if err != nil {
		t.Fatalf("read checkpoint: %v", err)
	}

	damage := map[string]func([]byte) []byte{
		"truncated header":  func(b []byte) []byte { return b[:8] },
		"truncated payload": func(b []byte) []byte { return b[:len(b)-7] },
		"bad magic":         func(b []byte) []byte { c := append([]byte(nil), b...); c[0] ^= 0xff; return c },
		"unknown version":   func(b []byte) []byte { c := append([]byte(nil), b...); c[len(magic)-1]++; return c },
		"flipped bit":       func(b []byte) []byte { c := append([]byte(nil), b...); c[len(c)-1] ^= 0x01; return c },
		"extra tail":        func(b []byte) []byte { return append(append([]byte(nil), b...), 0xAB) },
	}
	for name, corrupt := range damage {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(st.Path(), corrupt(pristine), 0o644); err != nil {
				t.Fatalf("write damaged file: %v", err)
			}
			cp, err := st.Load()
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("Load = (%v, %v), want ErrCorrupt", cp, err)
			}
			if cp != nil {
				t.Fatalf("corrupt load returned a checkpoint: %+v", cp)
			}
		})
	}
}

// TestCrashMidCheckpointKeepsPreviousSnapshot simulates a process
// killed after writing the temporary file but before the rename: the
// previous published snapshot must still load, and the stray temp file
// must not shadow it.
func TestCrashMidCheckpointKeepsPreviousSnapshot(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	first := testCheckpoint(t)
	if _, err := st.Save(first); err != nil {
		t.Fatalf("Save(first): %v", err)
	}

	second := testCheckpoint(t)
	second.SavedUnixNs = 99999
	second.NextSession = 42
	st.failAfterTemp = true
	if _, err := st.Save(second); err == nil {
		t.Fatalf("Save with failAfterTemp succeeded, want simulated crash")
	}
	st.failAfterTemp = false
	if _, err := os.Stat(filepath.Join(st.Dir(), tempFile)); err != nil {
		t.Fatalf("simulated crash left no temp file: %v", err)
	}

	got, err := st.Load()
	if err != nil {
		t.Fatalf("Load after simulated crash: %v", err)
	}
	if got == nil || got.SavedUnixNs != first.SavedUnixNs || got.NextSession != first.NextSession {
		t.Fatalf("after crash, Load = %+v, want the first snapshot", got)
	}

	// The next successful save recovers: it overwrites the stray temp
	// and publishes cleanly.
	if _, err := st.Save(second); err != nil {
		t.Fatalf("Save after crash: %v", err)
	}
	got, err = st.Load()
	if err != nil || got.NextSession != 42 {
		t.Fatalf("Load after recovery = (%+v, %v), want second snapshot", got, err)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatalf("Open(\"\") succeeded, want error")
	}
}

// TestEntryFingerprintDetectsDamage pins the in-memory integrity hook
// the server's cache validator relies on: mutating any persisted field
// changes the fingerprint.
func TestEntryFingerprintDetectsDamage(t *testing.T) {
	cp := testCheckpoint(t)
	snap := cp.Entries[0]
	orig := snap.Fingerprint()
	snap.JSON[0] ^= 0x01
	if snap.Fingerprint() == orig {
		t.Fatalf("fingerprint unchanged after JSON mutation")
	}
	snap.JSON[0] ^= 0x01
	if snap.Fingerprint() != orig {
		t.Fatalf("fingerprint not restored after undoing mutation")
	}
	snap.Text += "x"
	if snap.Fingerprint() == orig {
		t.Fatalf("fingerprint unchanged after text mutation")
	}
}
