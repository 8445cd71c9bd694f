package crackdb

import (
	"fmt"
	"io"

	"repro/internal/colload"
	"repro/internal/core"
	"repro/internal/snapshot"
	"repro/internal/table"
)

// SnapshotState is the serializable physical state of one index engine:
// the (partially reorganized) column plus its crack set.
type SnapshotState = core.SnapshotState

// DBSnapshot is the serializable physical state of a whole DB: a
// manifest of columns sorted by name — a single-column DB is the one
// column named "" — each a list of parts, one per shard (a single part
// for Single/Shared databases), carrying its value range and engine
// state. DB.Snapshot produces it in every mode and OpenSnapshot restores
// it into any of them — including a different shard count, in which case
// each column's engine state is split or merged along the shard bounds
// without losing cracks.
type DBSnapshot = snapshot.Manifest

// SnapshotPart is one part of a DBSnapshot column: the engine state of
// one shard plus the half-open value range [Lo, Hi) it owns.
type SnapshotPart = snapshot.Part

// SaveSnapshot writes the DB's state to path (atomic temp-file write +
// rename, CRC32 protected) in every concurrency mode; see DB.Snapshot. A
// crash mid-save leaves the previous snapshot file intact.
func (db *DB) SaveSnapshot(path string) error {
	snap, err := db.Snapshot()
	if err != nil {
		return err
	}
	return snapshot.SaveManifestFile(path, snap)
}

// OpenSnapshot restores a DB from a snapshot manifest, resuming with all
// adaptation earned so far, in any concurrency mode. The target layout
// need not match the source: restoring a sharded snapshot into Single or
// Shared merges the shards into one contiguous state (old shard
// boundaries become cracks), and restoring into Sharded(k) re-cuts the
// manifest along k-1 bounds — the snapshot's own bounds when k matches,
// otherwise bounds chosen from the snapshot's piece structure
// (SplitBounds) — splitting or merging engine state without losing
// cracks.
//
// The manifest restores as a table: the unnamed column as a
// single-column DB, named columns as a table. Every column is rebuilt
// here from its captured cracked state and pending queues. Restored
// columns have no row-order base, so a restored table serves every
// per-column selection but SelectProject fails with
// ErrSnapshotUnsupported.
func OpenSnapshot(snap DBSnapshot, algorithm string, opts ...Option) (*DB, error) {
	cfg, err := configure(opts)
	if err != nil {
		return nil, err
	}
	return openSnapshot(snap, algorithm, cfg)
}

// Reopen restores a new DB from snap with the algorithm and options db
// was opened with: OpenSnapshot without restating them. The serving layer
// rebuilds its state through it on a live restore or retain, so the
// replacement keeps the mode and tuning (group commit, parallel crack).
func (db *DB) Reopen(snap DBSnapshot) (*DB, error) {
	return openSnapshot(snap, db.algo, db.cfg)
}

func openSnapshot(snap DBSnapshot, algorithm string, cfg config) (*DB, error) {
	if err := snap.Validate(); err != nil {
		return nil, fmt.Errorf("crackdb: %w", err)
	}
	t, err := table.Restore(snap, algorithm, cfg.conc.m, cfg.core, cfg.group)
	if err != nil {
		return nil, fmt.Errorf("crackdb: %w", err)
	}
	return newDB(t, algorithm, cfg), nil
}

// OpenSnapshotFile reads a snapshot file written by SaveSnapshot and
// restores a DB from it, in any concurrency mode (see OpenSnapshot).
// Corrupted, truncated or version-bumped files fail with
// ErrSnapshotCorrupt, never a partial load.
func OpenSnapshotFile(path, algorithm string, opts ...Option) (*DB, error) {
	m, err := snapshot.LoadManifestFile(path)
	if err != nil {
		return nil, err
	}
	return OpenSnapshot(m, algorithm, opts...)
}

// WriteSnapshot serializes a DBSnapshot to w in the CRKS stream format
// (CRC32-trailed, self-describing version). It is the transport form of
// SaveSnapshot: the serving layer streams captured shard ranges over
// HTTP with it during live migration.
func WriteSnapshot(w io.Writer, snap DBSnapshot) error {
	return snapshot.WriteManifest(w, snap)
}

// ReadSnapshot reads a CRKS stream written by WriteSnapshot (or a
// snapshot file's contents). Corrupted, truncated or version-bumped
// streams fail with ErrSnapshotCorrupt, never a partial manifest.
func ReadSnapshot(r io.Reader) (DBSnapshot, error) {
	return snapshot.ReadManifest(r)
}

// SnapshotStore is a keyed home for DB snapshots — the pluggable layer
// behind every save/load path. The serving stack saves periodic backups
// through it and warm-starts from it; a key that was never saved loads
// with an error matching fs.ErrNotExist, which is how warm-start probes
// distinguish "cold start" from "broken store". See snapshot.Store for
// the key and atomicity contracts.
type SnapshotStore = snapshot.Store

// NewFileSnapshotStore opens (creating if needed) a file-backed snapshot
// store rooted at dir: each key is a file under dir, written atomically
// with the same temp-file + rename + CRC32 discipline as SaveSnapshot.
func NewFileSnapshotStore(dir string) (*snapshot.FileStore, error) {
	return snapshot.NewFileStore(dir)
}

// NewMemSnapshotStore returns an in-memory snapshot store holding
// encoded CRKS streams — tests and single-process fleets use it; every
// Save/Load round-trips the wire codec.
func NewMemSnapshotStore() *snapshot.MemStore { return snapshot.NewMemStore() }

// OpenSnapshotFrom loads the manifest under key from the store and
// restores a DB from it, in any concurrency mode (see OpenSnapshot). A
// never-saved key fails with an error matching fs.ErrNotExist.
func OpenSnapshotFrom(store SnapshotStore, key, algorithm string, opts ...Option) (*DB, error) {
	m, err := store.Load(key)
	if err != nil {
		return nil, err
	}
	return OpenSnapshot(m, algorithm, opts...)
}

// LoadColumn reads an integer column from a file, accepting both the
// newline-delimited text format and the CRKC binary format (sniffed).
func LoadColumn(path string) ([]int64, error) {
	return colload.LoadFile(path)
}

// SaveColumn writes an integer column to a file, as dense binary when
// binaryFormat is set, else as one value per line.
func SaveColumn(path string, values []int64, binaryFormat bool) error {
	return colload.SaveFile(path, values, binaryFormat)
}
