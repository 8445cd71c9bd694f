// Package dberr declares the sentinel errors shared by the public crackdb
// API and the internal layers that produce them. Internal packages wrap
// these with fmt.Errorf("...: %w", ...) at the failure site; the facade
// re-exports the same values (crackdb.ErrUnknownAlgorithm and friends), so
// callers can classify failures with errors.Is instead of string-matching,
// no matter how many layers the error crossed.
package dberr

import "errors"

var (
	// ErrUnknownAlgorithm reports an algorithm spec no builder recognizes,
	// or, where a column is served, a spec whose index has no engine.
	ErrUnknownAlgorithm = errors.New("unknown algorithm")

	// ErrUpdatesUnsupported reports a projection over a table column
	// written to since it was opened.
	ErrUpdatesUnsupported = errors.New("updates unsupported")

	// ErrSnapshotUnsupported reports a range capture of a table, or a
	// projection over a column restored from a snapshot.
	ErrSnapshotUnsupported = errors.New("snapshots unsupported")

	// ErrSnapshotCorrupt reports snapshot bytes that failed structural
	// decoding or checksum verification: wrong magic, an unsupported
	// format version, truncation, impossible counts, or a CRC mismatch.
	// Corrupt snapshots are never loaded partially — decoding fails as a
	// whole.
	ErrSnapshotCorrupt = errors.New("snapshot corrupt")

	// ErrPendingUpdates reports a Snapshot attempted while updates are
	// queued but not yet merged: the pending queues are not part of the
	// snapshot format, so proceeding would silently lose them. Query the
	// relevant ranges to merge the queue first.
	ErrPendingUpdates = errors.New("pending updates")

	// ErrUnknownColumn reports a predicate or projection naming a column
	// the table does not have.
	ErrUnknownColumn = errors.New("unknown column")

	// ErrClosed reports an operation on a closed DB handle.
	ErrClosed = errors.New("database is closed")
)
