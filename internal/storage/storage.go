// Package storage implements the epoch-based storage engine's on-disk
// layer: a CRC-framed write-ahead log of committed insert batches, delta
// snapshot segments keyed by view epoch, and a versioned MANIFEST that
// makes recovery a pure function of the data directory.
//
// Layout of a data directory (all integers little-endian):
//
//	MANIFEST            current epoch, WAL high-water mark, base snapshot,
//	                    ordered segment chain, active WAL (atomic rename)
//	base-NNNNNN.snap    full model snapshot (internal/snapshot format)
//	seg-NNNNNN.seg      rows committed + vectors changed since the previous
//	                    checkpoint epoch (O(delta), not O(model)), plus the
//	                    writer's HNSW graph as links and keys when its
//	                    index was built (format v3)
//	wal-NNNNNN.wal      committed insert batches since the last checkpoint
//
// Recovery = manifest -> base -> segments (rows into the database,
// vectors into the store) -> the newest graph (the last segment's, else
// the base's while no segment changed a vector) -> WAL tail replay
// through the delta-repair path. Every checkpoint rotates the WAL: a fresh log file is created,
// the manifest is atomically renamed to reference it, and only then is
// the old log deleted — so at every instant some manifest on disk names
// a base + segment chain + WAL that together reproduce all acknowledged
// writes. Files not referenced by the manifest are orphans from an
// interrupted checkpoint and are swept on the next open.
//
// All fsync and rename calls route through an injectable Sys so a
// crash-recovery harness can kill the writer at any durability point.
package storage

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/retrodb/retro/internal/wire"
)

const (
	// ManifestName is the manifest file name inside a data directory.
	ManifestName = "MANIFEST"

	manifestMagic   = "RETROMFT"
	manifestVersion = 1

	maxNameLen  = 1 << 12
	maxSegments = 1 << 16
)

// Sys bundles the durability syscalls the storage layer performs, so a
// crash-recovery test can fail fsync or rename at a chosen call and
// assert that recovery still reproduces every acknowledged write. A nil
// *Sys (or a nil field) selects the real syscall.
type Sys struct {
	// Fsync flushes a file's data to stable storage.
	Fsync func(f *os.File) error
	// Rename atomically replaces newpath with oldpath.
	Rename func(oldpath, newpath string) error
}

func (s *Sys) fsync(f *os.File) error {
	if s != nil && s.Fsync != nil {
		return s.Fsync(f)
	}
	return f.Sync()
}

func (s *Sys) rename(oldpath, newpath string) error {
	if s != nil && s.Rename != nil {
		return s.Rename(oldpath, newpath)
	}
	return os.Rename(oldpath, newpath)
}

// WriteFileAtomic writes path via a temp file + fsync + rename (plus a
// best-effort directory sync), with the durability calls routed through
// sys. A crash or failure mid-write never leaves a truncated file at
// path; the previous content, if any, stays intact until the rename.
func WriteFileAtomic(path string, sys *Sys, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	// Data blocks must be durable before the rename becomes visible, or
	// a power loss could persist the new name pointing at lost data.
	if err := sys.fsync(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := sys.rename(tmp.Name(), path); err != nil {
		return err
	}
	syncDir(filepath.Dir(path))
	return nil
}

// syncDir fsyncs a directory so a just-created or just-renamed entry
// survives a crash. Best effort: not every platform/filesystem supports
// directory fsync.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// Manifest is the root of a data directory: recovery reads it and
// nothing else to decide what to load. It is updated by atomic rename,
// so a directory always holds exactly one complete manifest.
type Manifest struct {
	// Epoch is the checkpoint epoch: store rows stamped at or above it
	// have not yet been captured by a segment.
	Epoch uint64
	// WALSeq is the WAL high-water mark: records with seq <= WALSeq are
	// fully covered by the segment chain and must not replay.
	WALSeq uint64
	// Base is the full base snapshot file name (relative to the dir).
	Base string
	// WAL is the active write-ahead log file name.
	WAL string
	// Segments is the ordered delta segment chain, applied over Base.
	Segments []string
}

// EncodeManifest renders a manifest to its wire form.
func EncodeManifest(m *Manifest) []byte {
	var b strings.Builder
	w := wire.NewWriter(&b)
	w.U64(m.Epoch)
	w.U64(m.WALSeq)
	w.String(m.Base)
	w.String(m.WAL)
	w.U32(uint32(len(m.Segments)))
	for _, s := range m.Segments {
		w.String(s)
	}
	_ = w.Flush()
	payload := []byte(b.String())

	var out strings.Builder
	fw := wire.NewWriter(&out)
	fw.Bytes([]byte(manifestMagic))
	fw.U32(manifestVersion)
	fw.U64(uint64(len(payload)))
	fw.U32(crc32.ChecksumIEEE(payload))
	fw.Bytes(payload)
	_ = fw.Flush()
	return []byte(out.String())
}

// DecodeManifest parses a manifest written by EncodeManifest. Every
// corruption — bad magic, version skew, truncation, checksum or bounds
// violation — is an error, never a panic.
func DecodeManifest(data []byte) (*Manifest, error) {
	r := wire.NewReader(strings.NewReader(string(data)))
	magic := make([]byte, len(manifestMagic))
	r.Bytes(magic)
	if r.Err() == nil && string(magic) != manifestMagic {
		return nil, fmt.Errorf("storage: bad manifest magic %q", magic)
	}
	version := r.U32()
	if r.Err() == nil && version != manifestVersion {
		return nil, fmt.Errorf("storage: unsupported manifest version %d", version)
	}
	n := r.U64()
	if r.Err() == nil && n > uint64(len(data)) {
		return nil, fmt.Errorf("storage: manifest payload length %d exceeds file size %d", n, len(data))
	}
	crc := r.U32()
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("storage: manifest header: %w", err)
	}
	payload := make([]byte, n)
	r.Bytes(payload)
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("storage: manifest payload: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != crc {
		return nil, fmt.Errorf("storage: manifest checksum mismatch (want %08x, got %08x)", crc, got)
	}

	pr := wire.NewReader(strings.NewReader(string(payload)))
	m := &Manifest{}
	m.Epoch = pr.U64()
	m.WALSeq = pr.U64()
	m.Base = pr.String(maxNameLen)
	m.WAL = pr.String(maxNameLen)
	count := pr.Count32(maxSegments)
	for i := 0; i < count; i++ {
		m.Segments = append(m.Segments, pr.String(maxNameLen))
	}
	if err := pr.Err(); err != nil {
		return nil, fmt.Errorf("storage: manifest body: %w", err)
	}
	for _, name := range append([]string{m.Base, m.WAL}, m.Segments...) {
		if name != filepath.Base(name) || name == "" || name == "." || name == ".." {
			return nil, fmt.Errorf("storage: manifest references invalid file name %q", name)
		}
	}
	return m, nil
}

// WriteManifest atomically installs m as dir's manifest.
func WriteManifest(dir string, m *Manifest, sys *Sys) error {
	data := EncodeManifest(m)
	return WriteFileAtomic(filepath.Join(dir, ManifestName), sys, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// ReadManifest loads dir's manifest. A missing manifest is reported via
// os.ErrNotExist (callers branch to fresh-start or legacy adoption).
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	return DecodeManifest(data)
}

// CleanDir removes storage files in dir that the manifest does not
// reference: segments, logs, bases and temp files left behind by a
// checkpoint that crashed between writing a file and renaming the
// manifest. Only names matching the engine's own patterns are touched;
// anything else in the directory is left alone. Best effort — an
// undeleted orphan is wasted space, not corruption.
func CleanDir(dir string, m *Manifest) {
	referenced := map[string]bool{ManifestName: true, m.Base: true, m.WAL: true}
	for _, s := range m.Segments {
		referenced[s] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || referenced[name] {
			continue
		}
		if isStorageFile(name) {
			_ = os.Remove(filepath.Join(dir, name))
		}
	}
}

// isStorageFile reports whether name matches a file the engine itself
// writes (including in-flight temp files from WriteFileAtomic).
func isStorageFile(name string) bool {
	if strings.Contains(name, ".tmp") &&
		(strings.HasPrefix(name, "base-") || strings.HasPrefix(name, "seg-") ||
			strings.HasPrefix(name, "wal-") || strings.HasPrefix(name, ManifestName)) {
		return true
	}
	switch {
	case strings.HasPrefix(name, "base-") && strings.HasSuffix(name, ".snap"):
		return true
	case strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".seg"):
		return true
	case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".wal"):
		return true
	}
	return false
}

// BaseName returns the canonical base snapshot file name for an epoch.
func BaseName(epoch uint64) string { return fmt.Sprintf("base-%06d.snap", epoch) }

// SegmentName returns the canonical segment file name for an epoch.
func SegmentName(epoch uint64) string { return fmt.Sprintf("seg-%06d.seg", epoch) }

// WALName returns the canonical WAL file name for an epoch.
func WALName(epoch uint64) string { return fmt.Sprintf("wal-%06d.wal", epoch) }
