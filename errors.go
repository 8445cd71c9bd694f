package crackdb

import "repro/internal/dberr"

// Sentinel errors returned (wrapped) by the crackdb API. Match them with
// errors.Is; the error strings carry context (algorithm spec, column
// name, pending-update counts) and are not part of the API.
var (
	// ErrUnknownAlgorithm: the algorithm spec is not one Algorithms
	// lists (the paper's Sort and partition/merge hybrid baselines are
	// figure-harness only, so they are refused too).
	ErrUnknownAlgorithm = dberr.ErrUnknownAlgorithm

	// ErrUpdatesUnsupported: a projection over a table column written to
	// since it was opened.
	ErrUpdatesUnsupported = dberr.ErrUpdatesUnsupported

	// ErrSnapshotUnsupported: a range capture of a table (it has no
	// single value domain to cut), or a projection over a restored table
	// column.
	ErrSnapshotUnsupported = dberr.ErrSnapshotUnsupported

	// ErrSnapshotCorrupt: snapshot bytes failed structural decoding or
	// checksum verification (wrong magic, version-bumped, truncated, CRC
	// mismatch). A corrupt snapshot is rejected whole, never loaded
	// partially.
	ErrSnapshotCorrupt = dberr.ErrSnapshotCorrupt

	// ErrPendingUpdates: SnapshotStrict while updates are queued but not
	// yet merged. Query the affected ranges to merge first, or use
	// Snapshot, which carries the queues.
	ErrPendingUpdates = dberr.ErrPendingUpdates

	// ErrUnknownColumn: a predicate or projection names a column the
	// database does not have — including an unscoped predicate against a
	// multi-column table (scope it with Predicate.On) and a column-scoped
	// predicate against a single-column database.
	ErrUnknownColumn = dberr.ErrUnknownColumn

	// ErrClosed: an operation on a DB handle after Close.
	ErrClosed = dberr.ErrClosed
)
