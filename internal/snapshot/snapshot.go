// Package snapshot serializes the physical state of a cracking index —
// the (partially reorganized) column plus its crack set — to a compact
// binary stream, and restores it.
//
// Cracking earns its index incrementally; a restart that drops the crack
// set throws that investment away. Persisting the snapshot lets a process
// resume with all adaptation intact, and is the building block for the
// paper's §6 "disk-based processing" direction.
//
// One wire format is written, v4 (the "CRKS" magic, version 4): a column
// count followed by one (name, part list) pair per column, names in
// strictly ascending order. A part list is a part count followed by one
// record per part in ascending value order: its bounds (lo, hi), its
// engine state (column length, row-id flag, values, optional row ids,
// crack count, (key, pos) pairs) and its two sorted pending-update
// queues. A table names every column; a single-column database is
// exactly one column with an empty name. Cracking is per attribute, so a
// table snapshot is a set of named single-column snapshots. Row ids never
// enter a snapshot: the flag is written 0, and row ids a legacy writer
// stored (flag 1) are read past and dropped.
//
// Versions 1–3 are read, never written, through the same part reader:
//
//   - v1 is one whole-domain part: an engine state with no bounds and no
//     pending queues.
//   - v2 is one part list whose records carry no pending queues.
//   - v3 is one part list of full v4 records.
//
// Everything is little-endian and a CRC32 trailer guards against torn
// writes. Decoding failures wrap dberr.ErrSnapshotCorrupt (sentinel,
// errors.Is-matchable): a corrupt stream is rejected as a whole, never
// loaded partially. The checksum makes silent bit damage detectable;
// semantic damage with a valid checksum is caught by
// core.SnapshotState.Validate on restore.
package snapshot

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/core"
	"repro/internal/dberr"
)

var (
	magicV1 = [8]byte{'C', 'R', 'K', 'S', 0, 0, 0, 1}
	magicV2 = [8]byte{'C', 'R', 'K', 'S', 0, 0, 0, 2}
	magicV3 = [8]byte{'C', 'R', 'K', 'S', 0, 0, 0, 3}
	magicV4 = [8]byte{'C', 'R', 'K', 'S', 0, 0, 0, 4}
)

// ErrCorrupt is the sentinel wrapped by every decoding failure
// (dberr.ErrSnapshotCorrupt, re-exported by the facade).
var ErrCorrupt = dberr.ErrSnapshotCorrupt

// Limits on counts read from the wire before allocating. Reads are
// chunked (see readInts), so a corrupt length costs bounded memory
// before the truncation or checksum error surfaces, but the hard caps
// keep even a maliciously long stream from ballooning.
const (
	maxValues = 1 << 33
	maxParts  = 1 << 16
	// maxNameLen bounds one table-manifest column name on the wire.
	maxNameLen = 1 << 10
	// readChunk bounds per-step slice growth while decoding, in elements.
	readChunk = 1 << 16
)

// corruptf builds a decoding error wrapping ErrCorrupt.
func corruptf(format string, args ...any) error {
	return fmt.Errorf("snapshot: %s: %w", fmt.Sprintf(format, args...), ErrCorrupt)
}

// WriteManifest serializes m to w in the v4 format. It refuses what no
// reader accepts: no columns, a column with no parts, a name over
// maxNameLen bytes, or the unnamed column beside others.
func WriteManifest(w io.Writer, m Manifest) error {
	if len(m.Columns) == 0 {
		return errors.New("snapshot: refusing to write an empty manifest")
	}
	for _, c := range m.Columns {
		if len(c.Parts) == 0 {
			return fmt.Errorf("snapshot: refusing to write column %q with no parts", c.Name)
		}
		if c.Name == "" && len(m.Columns) > 1 || len(c.Name) > maxNameLen {
			return fmt.Errorf("snapshot: column name %q out of range (1..%d bytes)", c.Name, maxNameLen)
		}
	}
	crc := crc32.NewIEEE()
	bw := bufio.NewWriter(io.MultiWriter(w, crc))
	// bufio keeps the first write error and refuses every later write, so
	// one check at Flush covers the whole body.
	put := func(v any) { _ = binary.Write(bw, binary.LittleEndian, v) }
	put(magicV4)
	put(uint64(len(m.Columns)))
	for _, c := range m.Columns {
		put(uint64(len(c.Name)))
		put([]byte(c.Name))
		writeParts(put, c.Parts)
	}
	// Flush the buffered body through the CRC before emitting the trailer
	// directly to w (the trailer itself is not part of the checksum).
	if err := bw.Flush(); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, crc.Sum32())
}

// writeParts emits one part list: the count, then per part its bounds,
// engine state and pending queues.
func writeParts(put func(any), parts Parts) {
	put(uint64(len(parts)))
	for _, p := range parts {
		st := p.State
		put(p.Lo)
		put(p.Hi)
		put(uint64(len(st.Values)))
		put(uint8(0)) // row-id flag: row ids never enter a snapshot
		put(st.Values)
		put(uint64(len(st.Cracks)))
		for _, c := range st.Cracks {
			put(c.Key)
			put(uint64(c.Pos))
		}
		for _, q := range [][]int64{st.PendingInserts, st.PendingDeletes} {
			put(uint64(len(q)))
			put(q)
		}
	}
}

// partFormat is the subset of the v4 part record a wire version carries.
type partFormat struct {
	// list: a part count precedes the parts and each part starts with its
	// bounds (v2+). Without it the stream holds one whole-domain part.
	list bool
	// pending: each engine state is followed by its pending queues (v3+).
	pending bool
}

// ReadManifest deserializes a snapshot of any wire version from r,
// verifying structure and checksum. A v1–v3 stream decodes into the one
// unnamed column. Decoding failures wrap ErrCorrupt. The result carries
// no semantic guarantees until Manifest.Validate (run by the restore
// paths) accepts it.
//
// The body is read with exact-size reads through a TeeReader feeding the
// CRC — deliberately unbuffered, so no lookahead can pull trailer bytes
// into the checksum.
func ReadManifest(r io.Reader) (Manifest, error) {
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)

	var m [8]byte
	if _, err := io.ReadFull(tr, m[:]); err != nil {
		return Manifest{}, corruptf("reading magic: %v", err)
	}
	var man Manifest
	var err error
	switch m {
	case magicV1, magicV2, magicV3:
		var parts Parts
		parts, err = readParts(tr, partFormat{list: m != magicV1, pending: m == magicV3})
		man = Manifest{Columns: []TableColumn{{Parts: parts}}}
	case magicV4:
		man, err = readColumns(tr)
	default:
		if m[0] == 'C' && m[1] == 'R' && m[2] == 'K' && m[3] == 'S' {
			return Manifest{}, corruptf("unsupported CRKS version %d", binary.BigEndian.Uint32(m[4:]))
		}
		return Manifest{}, corruptf("not a CRKS snapshot (magic %x)", m)
	}
	if err != nil {
		return Manifest{}, err
	}
	want := crc.Sum32()
	var got uint32
	if err := binary.Read(r, binary.LittleEndian, &got); err != nil {
		return Manifest{}, corruptf("reading checksum: %v", err)
	}
	if got != want {
		return Manifest{}, corruptf("checksum mismatch (got %08x, want %08x)", got, want)
	}
	return man, nil
}

// readColumns reads a v4 body: the column count, then per column a
// length-prefixed name and a part list. An empty name is the unnamed
// column of a single-column database, so it is corruption anywhere but
// alone.
func readColumns(tr io.Reader) (Manifest, error) {
	var cols uint64
	if err := binary.Read(tr, binary.LittleEndian, &cols); err != nil {
		return Manifest{}, corruptf("reading column count: %v", err)
	}
	if cols == 0 || cols > maxParts {
		return Manifest{}, corruptf("claims %d columns", cols)
	}
	var man Manifest
	for ci := uint64(0); ci < cols; ci++ {
		var nameLen uint64
		if err := binary.Read(tr, binary.LittleEndian, &nameLen); err != nil {
			return Manifest{}, corruptf("column %d: reading name length: %v", ci, err)
		}
		if nameLen > maxNameLen || nameLen == 0 && cols > 1 {
			return Manifest{}, corruptf("column %d: name length %d out of range", ci, nameLen)
		}
		name := make([]byte, nameLen)
		if _, err := io.ReadFull(tr, name); err != nil {
			return Manifest{}, corruptf("column %d: reading name: %v", ci, err)
		}
		parts, err := readParts(tr, partFormat{list: true, pending: true})
		if err != nil {
			return Manifest{}, fmt.Errorf("column %q: %w", name, err)
		}
		man.Columns = append(man.Columns, TableColumn{Name: string(name), Parts: parts})
	}
	return man, nil
}

// readParts reads one part list in format f. Every part is clamped like
// Single clamps: our own writers never emit cracks outside a part's
// range, but legitimate v1 streams carry domain-edge cracks from
// unbounded predicates, and normalizing every version alike keeps
// encode/decode idempotent.
func readParts(tr io.Reader, f partFormat) (Parts, error) {
	n := uint64(1)
	if f.list {
		if err := binary.Read(tr, binary.LittleEndian, &n); err != nil {
			return nil, corruptf("reading part count: %v", err)
		}
		if n == 0 || n > maxParts {
			return nil, corruptf("claims %d parts", n)
		}
	}
	parts := make(Parts, 0, n)
	for i := uint64(0); i < n; i++ {
		bounds := [2]int64{math.MinInt64, math.MaxInt64}
		if f.list {
			if err := binary.Read(tr, binary.LittleEndian, &bounds); err != nil {
				return nil, corruptf("part %d: reading bounds: %v", i, err)
			}
		}
		st, err := readState(tr)
		if err == nil && f.pending {
			if st.PendingInserts, err = readPendingQueue(tr); err == nil {
				st.PendingDeletes, err = readPendingQueue(tr)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		parts = append(parts, ClampedPart(bounds[0], bounds[1], st))
	}
	return parts, nil
}

// readState reads one engine state body (no magic, no checksum). Row ids
// that legacy writers stored are skipped: nothing restores them.
func readState(tr io.Reader) (core.SnapshotState, error) {
	var st core.SnapshotState
	var n uint64
	if err := binary.Read(tr, binary.LittleEndian, &n); err != nil {
		return st, corruptf("reading length: %v", err)
	}
	if n > maxValues {
		return st, corruptf("claims %d values", n)
	}
	var hasRowIDs uint8
	if err := binary.Read(tr, binary.LittleEndian, &hasRowIDs); err != nil {
		return st, corruptf("reading flags: %v", err)
	}
	if hasRowIDs > 1 {
		return st, corruptf("bad row-id flag %d", hasRowIDs)
	}
	var err error
	if st.Values, err = readInts(tr, n); err != nil {
		return st, corruptf("reading values: %v", err)
	}
	if hasRowIDs == 1 {
		if _, err = io.CopyN(io.Discard, tr, 4*int64(n)); err != nil {
			return st, corruptf("reading row ids: %v", err)
		}
	}
	var k uint64
	if err := binary.Read(tr, binary.LittleEndian, &k); err != nil {
		return st, corruptf("reading crack count: %v", err)
	}
	if k > n+1 {
		return st, corruptf("%d cracks for %d values", k, n)
	}
	if k > 0 {
		st.Cracks = make([]core.CrackEntry, 0, min(k, readChunk))
		raw := make([]byte, 16*min(k, readChunk))
		for read := uint64(0); read < k; {
			c := min(k-read, readChunk)
			if _, err := io.ReadFull(tr, raw[:16*c]); err != nil {
				return st, corruptf("reading cracks: %v", err)
			}
			for i := uint64(0); i < c; i++ {
				key := int64(binary.LittleEndian.Uint64(raw[16*i:]))
				pos := binary.LittleEndian.Uint64(raw[16*i+8:])
				if pos > n {
					return st, corruptf("crack %d position %d out of range", read+i, pos)
				}
				st.Cracks = append(st.Cracks, core.CrackEntry{Key: key, Pos: int(pos)})
			}
			read += c
		}
	}
	return st, nil
}

// readPendingQueue reads one length-prefixed pending-update value list,
// rejecting unsorted queues — concatenating per-part queues on restore
// relies on each being sorted.
func readPendingQueue(tr io.Reader) ([]int64, error) {
	var n uint64
	if err := binary.Read(tr, binary.LittleEndian, &n); err != nil {
		return nil, corruptf("reading pending count: %v", err)
	}
	if n > maxValues {
		return nil, corruptf("claims %d pending updates", n)
	}
	if n == 0 {
		return nil, nil
	}
	q, err := readInts(tr, n)
	if err != nil {
		return nil, corruptf("reading pending values: %v", err)
	}
	for i := 1; i < len(q); i++ {
		if q[i] < q[i-1] {
			return nil, corruptf("pending queue not sorted at %d", i)
		}
	}
	return q, nil
}

// readInts reads n little-endian int64s, growing the destination in
// chunks so a lying length field costs bounded memory before the stream
// runs dry.
func readInts(r io.Reader, n uint64) ([]int64, error) {
	out := make([]int64, 0, min(n, readChunk))
	for uint64(len(out)) < n {
		c := int(min(n-uint64(len(out)), readChunk))
		start := len(out)
		out = slices.Grow(out, c)[: start+c : start+c]
		if err := binary.Read(r, binary.LittleEndian, out[start:]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tempFile is what a save writes its body through (*os.File in
// production).
type tempFile interface {
	io.WriteCloser
	Sync() error
}

// Hooks for the crash-safety tests: they inject failures between the
// temp-file write and the rename, and mid-write truncation, to prove the
// previous snapshot file survives every failure mode. Production code
// never touches them.
var (
	createFile = func(path string) (tempFile, error) { return os.Create(path) }
	renameFile = os.Rename
)

// SaveManifestFile writes a manifest to path atomically and durably. A
// crash or power loss at any point leaves either the previous file or
// the new one, never a torn mix: the body goes to path.tmp first and is
// synced to disk before the rename, the only step that touches path,
// and the directory is synced after it so the rename itself persists.
func SaveManifestFile(path string, m Manifest) error {
	tmp := path + ".tmp"
	f, err := createFile(tmp)
	if err != nil {
		return err
	}
	if err := WriteManifest(f, m); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := renameFile(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// LoadManifestFile reads a snapshot manifest from path.
func LoadManifestFile(path string) (Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return Manifest{}, err
	}
	defer f.Close()
	return ReadManifest(f)
}
