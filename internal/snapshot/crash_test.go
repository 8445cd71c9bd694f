package snapshot

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// restoreHooks resets the save-path failure-injection hooks after a test.
func restoreHooks(t *testing.T) {
	t.Helper()
	origCreate, origRename := createFile, renameFile
	t.Cleanup(func() { createFile, renameFile = origCreate, origRename })
}

// loadRows asserts path still loads and returns its row count.
func loadRows(t *testing.T, path string) int {
	t.Helper()
	m, err := LoadManifestFile(path)
	if err != nil {
		t.Fatalf("previous snapshot no longer loads: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("previous snapshot invalid: %v", err)
	}
	return m.Rows()
}

// truncatingWriter fails with a fake disk-full error after limit bytes,
// leaving a torn temp file behind exactly as a crashed write would.
type truncatingWriter struct {
	f     *os.File
	limit int
	n     int
}

func (w *truncatingWriter) Write(p []byte) (int, error) {
	if w.n+len(p) > w.limit {
		keep := w.limit - w.n
		if keep > 0 {
			w.f.Write(p[:keep])
			w.n += keep
		}
		return keep, errors.New("injected: device full")
	}
	n, err := w.f.Write(p)
	w.n += n
	return n, err
}

func (w *truncatingWriter) Close() error { return w.f.Close() }

func (w *truncatingWriter) Sync() error { return w.f.Sync() }

// TestAtomicSaveSurvivesMidWriteFailure injects a write failure partway
// through the temp file: the save must error, the torn temp must not be
// promoted, and the previous snapshot file must stay loadable.
func TestAtomicSaveSurvivesMidWriteFailure(t *testing.T) {
	restoreHooks(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "db.crks")
	old := unnamed(shardedParts(t, 1000, 2))
	if err := SaveManifestFile(path, old); err != nil {
		t.Fatal(err)
	}

	createFile = func(p string) (tempFile, error) {
		f, err := os.Create(p)
		if err != nil {
			return nil, err
		}
		return &truncatingWriter{f: f, limit: 100}, nil
	}
	bigger := unnamed(shardedParts(t, 3000, 3))
	if err := SaveManifestFile(path, bigger); err == nil {
		t.Fatal("truncated save reported success")
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("torn temp file left behind: %v", err)
	}
	if got := loadRows(t, path); got != 1000 {
		t.Fatalf("previous snapshot has %d rows, want 1000", got)
	}
}

// TestAtomicSaveSurvivesRenameFailure injects a failure between the
// temp-file write and the rename — the window where a crash leaves a
// complete temp file but an untouched target.
func TestAtomicSaveSurvivesRenameFailure(t *testing.T) {
	restoreHooks(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "db.crks")
	old := unnamed(shardedParts(t, 1000, 2))
	if err := SaveManifestFile(path, old); err != nil {
		t.Fatal(err)
	}

	renameFile = func(oldpath, newpath string) error {
		return errors.New("injected: crash before rename")
	}
	if err := SaveManifestFile(path, unnamed(shardedParts(t, 3000, 3))); err == nil {
		t.Fatal("failed rename reported success")
	}
	if got := loadRows(t, path); got != 1000 {
		t.Fatalf("previous snapshot has %d rows, want 1000", got)
	}
}

// TestCrashLeftoverTmpDoesNotShadow simulates a process that died after
// writing (possibly garbage to) the temp file without renaming: the
// target keeps loading, and the next successful save overwrites the
// leftover.
func TestCrashLeftoverTmpDoesNotShadow(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.crks")
	old := unnamed(shardedParts(t, 1000, 2))
	if err := SaveManifestFile(path, old); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", []byte("torn garbage from a dead process"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := loadRows(t, path); got != 1000 {
		t.Fatalf("snapshot has %d rows, want 1000", got)
	}
	// A later save must shrug off the leftover and promote cleanly.
	next := unnamed(shardedParts(t, 3000, 3))
	if err := SaveManifestFile(path, next); err != nil {
		t.Fatal(err)
	}
	m, err := LoadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !sameManifest(m, next) {
		t.Fatal("promoted snapshot content wrong")
	}
}

// syncRecorder logs the save path's file operations in order.
type syncRecorder struct {
	*os.File
	log *[]string
}

func (r syncRecorder) Sync() error {
	*r.log = append(*r.log, "sync")
	return r.File.Sync()
}

func (r syncRecorder) Close() error {
	*r.log = append(*r.log, "close")
	return r.File.Close()
}

// TestSaveSyncsBeforeRename: the temp file's data reaches the disk before
// the rename publishes it, so a power loss after the rename cannot leave
// an empty or torn file under the snapshot's name.
func TestSaveSyncsBeforeRename(t *testing.T) {
	restoreHooks(t)
	var log []string
	createFile = func(p string) (tempFile, error) {
		f, err := os.Create(p)
		if err != nil {
			return nil, err
		}
		return syncRecorder{File: f, log: &log}, nil
	}
	renameFile = func(oldpath, newpath string) error {
		log = append(log, "rename")
		return os.Rename(oldpath, newpath)
	}
	path := filepath.Join(t.TempDir(), "db.crks")
	if err := SaveManifestFile(path, unnamed(shardedParts(t, 1000, 2))); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(log, []string{"sync", "close", "rename"}) {
		t.Fatalf("save ran %v, want sync, close, rename", log)
	}
	if got := loadRows(t, path); got != 1000 {
		t.Fatalf("saved snapshot has %d rows, want 1000", got)
	}
}
