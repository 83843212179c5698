package hdf

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"strings"

	"genxio/internal/metrics"
	"genxio/internal/rt"
)

// Reader reads an RHDF file.
type Reader struct {
	f      rt.File
	clock  rt.Clock
	cost   CostProfile
	sets   []*Dataset
	names  map[string]int
	dirOff int64

	// Metrics, when set, receives hdf.lookups, hdf.datasets_read and
	// hdf.bytes_read counters. A nil registry is a no-op.
	Metrics *metrics.Registry
}

// Open opens an RHDF file for reading and parses its directory, charging
// the profile's open cost.
func Open(fsys rt.FS, name string, clock rt.Clock, cost CostProfile) (*Reader, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	r, err := newReader(f, clock, cost)
	if err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func newReader(f rt.File, clock rt.Clock, cost CostProfile) (*Reader, error) {
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	version, dirOff, count, err := readHeader(f, size)
	if err != nil {
		return nil, err
	}
	dir := make([]byte, size-dirOff)
	if _, err := f.ReadAt(dir, dirOff); err != nil {
		return nil, fmt.Errorf("hdf: reading directory of %s: %w", f.Name(), err)
	}
	sets, err := decodeDir(dir, version)
	if err != nil {
		return nil, fmt.Errorf("hdf: %s: %w", f.Name(), err)
	}
	if len(sets) != count {
		return nil, fmt.Errorf("hdf: %s header says %d datasets, directory has %d", f.Name(), count, len(sets))
	}
	for _, d := range sets {
		if d.offset < headerSize || d.length < 0 || d.offset+d.length < d.offset || d.offset+d.length > dirOff {
			return nil, fmt.Errorf("hdf: %s dataset %q extent [%d,+%d) outside data region [%d,%d)",
				f.Name(), d.Name, d.offset, d.length, headerSize, dirOff)
		}
		for _, dim := range d.Dims {
			if dim < 0 {
				return nil, fmt.Errorf("hdf: %s dataset %q has negative dimension %d", f.Name(), d.Name, dim)
			}
		}
	}
	r := &Reader{f: f, clock: clock, cost: cost, sets: sets, names: make(map[string]int, len(sets)), dirOff: dirOff}
	for i, d := range sets {
		r.names[d.Name] = i
	}
	clock.Compute(cost.OpenCost(len(sets)))
	return r, nil
}

// NumDatasets returns the number of datasets in the file.
func (r *Reader) NumDatasets() int { return len(r.sets) }

// Datasets returns all dataset descriptors in file order.
func (r *Reader) Datasets() []*Dataset { return r.sets }

// Names returns all dataset names in file order.
func (r *Reader) Names() []string {
	out := make([]string, len(r.sets))
	for i, d := range r.sets {
		out[i] = d.Name
	}
	return out
}

// Lookup finds a dataset by name, charging the profile's lookup cost.
func (r *Reader) Lookup(name string) (*Dataset, bool) {
	r.clock.Compute(r.cost.LookupCost(len(r.sets)))
	r.Metrics.Counter("hdf.lookups").Inc()
	i, ok := r.names[name]
	if !ok {
		return nil, false
	}
	return r.sets[i], true
}

// LookupPrefix returns all datasets whose name starts with prefix, in file
// order, charging one lookup.
func (r *Reader) LookupPrefix(prefix string) []*Dataset {
	r.clock.Compute(r.cost.LookupCost(len(r.sets)))
	r.Metrics.Counter("hdf.lookups").Inc()
	var out []*Dataset
	for _, d := range r.sets {
		if strings.HasPrefix(d.Name, prefix) {
			out = append(out, d)
		}
	}
	return out
}

// ReadData reads a dataset's logical bytes, inflating deflate-compressed
// storage transparently. Datasets carrying a CRC32C (version-3 writers)
// are verified before use; a mismatch reports ErrChecksum with file and
// dataset context and bumps the hdf.checksum_failures counter.
func (r *Reader) ReadData(d *Dataset) ([]byte, error) {
	buf := make([]byte, d.length)
	if _, err := r.f.ReadAt(buf, d.offset); err != nil {
		return nil, fmt.Errorf("hdf: reading %q: %w", d.Name, err)
	}
	if want, ok := d.CRC(); ok {
		if got := Checksum(buf); got != want {
			r.Metrics.Counter("hdf.checksum_failures").Inc()
			return nil, fmt.Errorf("%w: %s dataset %q: stored crc32c %08x, computed %08x",
				ErrChecksum, r.f.Name(), d.Name, want, got)
		}
	}
	r.Metrics.Counter("hdf.datasets_read").Inc()
	r.Metrics.Counter("hdf.bytes_read").Add(int64(len(buf)))
	if !d.Compressed() {
		return buf, nil
	}
	out, err := InflateStored(buf, d.Len()*int64(d.Type.Size()))
	if err != nil {
		return nil, fmt.Errorf("hdf: %q: %w", d.Name, err)
	}
	return out, nil
}

// InflateStored inflates a deflate-compressed stored payload and checks it
// against the expected logical size. It is the decompression step shared
// by ReadData and the catalog's direct offset reads, which fetch stored
// bytes without going through a Reader.
func InflateStored(stored []byte, logical int64) ([]byte, error) {
	zr := flate.NewReader(bytes.NewReader(stored))
	out, err := io.ReadAll(io.LimitReader(zr, logical+1))
	if err != nil {
		return nil, fmt.Errorf("inflating: %w", err)
	}
	if int64(len(out)) != logical {
		return nil, fmt.Errorf("inflated to %d bytes, want %d", len(out), logical)
	}
	return out, nil
}

// Close closes the underlying file.
func (r *Reader) Close() error { return r.f.Close() }

// readHeader validates the fixed header against the actual file size and
// returns (version, dirOff, count). All failure modes of garbage input —
// wrong magic, unknown version, offsets outside the file — are errors,
// never panics.
func readHeader(f rt.File, size int64) (uint32, int64, int, error) {
	if size < headerSize {
		return 0, 0, 0, fmt.Errorf("hdf: %s too short for a header (%d bytes)", f.Name(), size)
	}
	hdr := make([]byte, headerSize)
	if _, err := f.ReadAt(hdr, 0); err != nil {
		return 0, 0, 0, fmt.Errorf("hdf: reading header of %s: %w", f.Name(), err)
	}
	if string(hdr[:4]) != Magic {
		return 0, 0, 0, fmt.Errorf("hdf: %s is not an RHDF file", f.Name())
	}
	version := binary.LittleEndian.Uint32(hdr[4:])
	if version < minVersion || version > Version {
		return 0, 0, 0, fmt.Errorf("hdf: %s has version %d, want %d..%d", f.Name(), version, minVersion, Version)
	}
	dirOff := int64(binary.LittleEndian.Uint64(hdr[8:]))
	count := int(binary.LittleEndian.Uint32(hdr[16:]))
	if dirOff == 0 {
		return 0, 0, 0, fmt.Errorf("hdf: %s has no directory (incomplete write?)", f.Name())
	}
	if dirOff < headerSize || dirOff > size {
		return 0, 0, 0, fmt.Errorf("hdf: %s directory offset %d outside file [%d,%d]", f.Name(), dirOff, headerSize, size)
	}
	// A directory entry is at least 22 bytes (empty name, no dims, no
	// attrs) in every version, so a header claiming more sets than could
	// fit is garbage — reject it before decodeDir sizes any allocation.
	if maxSets := (size - dirOff) / 22; int64(count) > maxSets || count < 0 {
		return 0, 0, 0, fmt.Errorf("hdf: %s header claims %d datasets, directory holds at most %d", f.Name(), count, maxSets)
	}
	return version, dirOff, count, nil
}

func decodeDir(b []byte, version uint32) ([]*Dataset, error) {
	p := &parser{b: b}
	n := int(p.u32())
	// Cap the allocation by what the directory bytes could possibly hold;
	// the count is validated against the header afterwards.
	maxSets := len(b) / 22
	if n > maxSets {
		return nil, fmt.Errorf("corrupt directory: %d datasets cannot fit in %d bytes", n, len(b))
	}
	sets := make([]*Dataset, 0, n)
	for i := 0; i < n; i++ {
		d := &Dataset{}
		d.Name = p.str()
		d.Type = DType(p.u8())
		d.flags = p.u8()
		nd := int(p.u8())
		d.Dims = make([]int64, nd)
		for j := range d.Dims {
			d.Dims[j] = int64(p.u64())
		}
		d.offset = int64(p.u64())
		d.length = int64(p.u64())
		if version >= 3 {
			d.crc = p.u32()
		} else {
			d.flags &^= flagHasCRC
		}
		na := int(p.u16())
		d.Attrs = make([]Attr, na)
		for j := range d.Attrs {
			d.Attrs[j].Name = p.str()
			d.Attrs[j].Type = DType(p.u8())
			ln := int(p.u32())
			d.Attrs[j].Data = p.bytes(ln)
		}
		if p.err != nil {
			return nil, fmt.Errorf("corrupt directory at dataset %d: %w", i, p.err)
		}
		sets = append(sets, d)
	}
	return sets, nil
}

// DirInfo summarizes a committed RHDF file for the snapshot manifest: its
// size, the CRC32C of its directory bytes, and its dataset count. It reads
// only the header and directory, not the dataset payloads.
func DirInfo(fsys rt.FS, name string) (size int64, dirCRC uint32, numSets int, err error) {
	size, dirCRC, sets, err := ScanDir(fsys, name)
	if err != nil {
		return 0, 0, 0, err
	}
	return size, dirCRC, len(sets), nil
}

// ScanDir reads and decodes a committed RHDF file's directory without
// touching dataset payloads, returning the file size, the CRC32C of the raw
// directory bytes, and the full dataset descriptors (names, shapes, extents,
// per-dataset CRCs). The snapshot commit path uses it to derive both the
// manifest file entry and the block-catalog index from a single pass —
// the file's own directory is the per-file index.
func ScanDir(fsys rt.FS, name string) (size int64, dirCRC uint32, sets []*Dataset, err error) {
	f, err := fsys.Open(name)
	if err != nil {
		return 0, 0, nil, err
	}
	defer f.Close()
	size, err = f.Size()
	if err != nil {
		return 0, 0, nil, err
	}
	version, dirOff, count, err := readHeader(f, size)
	if err != nil {
		return 0, 0, nil, err
	}
	dir := make([]byte, size-dirOff)
	if _, err := f.ReadAt(dir, dirOff); err != nil {
		return 0, 0, nil, fmt.Errorf("hdf: reading directory of %s: %w", f.Name(), err)
	}
	sets, err = decodeDir(dir, version)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("hdf: %s: %w", f.Name(), err)
	}
	if len(sets) != count {
		return 0, 0, nil, fmt.Errorf("hdf: %s header says %d datasets, directory has %d", f.Name(), count, len(sets))
	}
	return size, Checksum(dir), sets, nil
}

// DirEntries returns a committed RHDF file's dataset descriptors without
// reading payload bytes — how fsck and the pane-universe walk discover
// which panes a file holds without consulting the block catalog.
func DirEntries(fsys rt.FS, name string) ([]*Dataset, error) {
	_, _, sets, err := ScanDir(fsys, name)
	return sets, err
}

// parser is a bounds-checked little-endian cursor.
type parser struct {
	b   []byte
	off int
	err error
}

func (p *parser) need(n int) bool {
	if p.err != nil {
		return false
	}
	if p.off+n > len(p.b) {
		p.err = fmt.Errorf("truncated at offset %d (need %d of %d)", p.off, n, len(p.b))
		return false
	}
	return true
}

func (p *parser) u8() uint8 {
	if !p.need(1) {
		return 0
	}
	v := p.b[p.off]
	p.off++
	return v
}

func (p *parser) u16() uint16 {
	if !p.need(2) {
		return 0
	}
	v := binary.LittleEndian.Uint16(p.b[p.off:])
	p.off += 2
	return v
}

func (p *parser) u32() uint32 {
	if !p.need(4) {
		return 0
	}
	v := binary.LittleEndian.Uint32(p.b[p.off:])
	p.off += 4
	return v
}

func (p *parser) u64() uint64 {
	if !p.need(8) {
		return 0
	}
	v := binary.LittleEndian.Uint64(p.b[p.off:])
	p.off += 8
	return v
}

func (p *parser) bytes(n int) []byte {
	if !p.need(n) {
		return nil
	}
	v := append([]byte(nil), p.b[p.off:p.off+n]...)
	p.off += n
	return v
}

func (p *parser) str() string {
	n := int(p.u16())
	return string(p.bytes(n))
}
