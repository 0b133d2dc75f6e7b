package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sort"
	"sync"
)

// This file implements the durable backend: a single append-only log of
// length-prefixed, CRC-guarded records with explicit commit markers.
//
// Layout:
//
//	header:  "DSWKV2\n"
//	put:     0x01 ‖ uvarint(len key) ‖ key ‖ uvarint(len val) ‖ val ‖ crc32
//	commit:  0x03 ‖ uvarint(records in batch) ‖ crc32
//
// Every crc32 (IEEE) covers the record from its type byte up to the
// checksum. A batch is the run of put records since the previous commit
// marker; Flush writes the staged records in sorted key order followed by
// one marker, so a batch is applied all-or-nothing: a reopen
// replays records into a staging set and merges it into the live index only
// at a valid marker. Anything after the last valid marker — a torn write, a
// truncated batch, trailing garbage — is discarded and the file truncated
// back to the last committed byte, which is what makes a mid-batch crash
// recoverable instead of corrupting the tree (FuzzStoreReopen pins this).
//
// The log is append-only: a re-put appends a fresh record and moves the
// in-memory index; stale versions remain in the file until a future
// compaction. Get serves committed records by offset via ReadAt and staged
// records from the pending buffer, so readers always observe their writes.
//
// A version 1 log ("DSWKV1\n") could also hold a delete record (0x02). This
// scanner would read one as a torn tail and truncate every batch after it,
// so a version 1 log is refused with ErrBadFile and left as it is.

// File header and record types.
const (
	fileHeader = "DSWKV2\n"

	recPut    = 0x01
	recCommit = 0x03
)

// DefaultBatchPuts is the staged-record count that triggers an automatic
// Flush when FileOptions.BatchPuts is left at zero.
const DefaultBatchPuts = 1024

// ErrBadFile reports a store file whose header is not a DSWKV2 log.
var ErrBadFile = errors.New("store: not a node-store file")

// FileOptions configures a File store.
type FileOptions struct {
	// BatchPuts auto-flushes once this many records are staged. 0 selects
	// DefaultBatchPuts; negative disables auto-flush (explicit Flush only).
	BatchPuts int
	// Sync fsyncs the file on every Flush. Without it a machine crash can
	// lose recently committed batches; a process crash cannot lose anything
	// past the kernel's page cache either way.
	Sync bool
}

// span locates a committed value inside the file.
type span struct {
	off int64
	n   int
}

// File is the append-only durable backend. Safe for concurrent use.
type File struct {
	opts FileOptions
	path string

	mu         sync.Mutex
	f          *os.File          // guarded by mu
	size       int64             // guarded by mu; committed append offset
	index      map[string]span   // guarded by mu
	pendingPut map[string][]byte // guarded by mu
	closed     bool              // guarded by mu
}

// OpenFile opens (or creates) a file-backed store at path, replaying every
// committed batch and truncating any torn tail.
func OpenFile(path string, opts FileOptions) (*File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o600)
	if err != nil {
		return nil, fmt.Errorf("store: opening %s: %w", path, err)
	}
	s := &File{
		opts:       opts,
		path:       path,
		f:          f,
		index:      make(map[string]span),
		pendingPut: make(map[string][]byte),
	}
	if err := s.replayLocked(); err != nil {
		_ = f.Close()
		return nil, err
	}
	return s, nil
}

// replayLocked scans the log, rebuilding the index from committed batches, and
// truncates the file back to the end of the last valid commit marker.
func (s *File) replayLocked() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: stat %s: %w", s.path, err)
	}
	if info.Size() == 0 {
		if _, err := s.f.WriteAt([]byte(fileHeader), 0); err != nil {
			return fmt.Errorf("store: writing header: %w", err)
		}
		s.size = int64(len(fileHeader))
		return nil
	}
	header := make([]byte, len(fileHeader))
	if _, err := io.ReadFull(io.NewSectionReader(s.f, 0, int64(len(fileHeader))), header); err != nil || string(header) != fileHeader {
		return fmt.Errorf("%w: %s", ErrBadFile, s.path)
	}

	data := make([]byte, info.Size()-int64(len(fileHeader)))
	if _, err := io.ReadFull(io.NewSectionReader(s.f, int64(len(fileHeader)), int64(len(data))), data); err != nil {
		return fmt.Errorf("store: reading %s: %w", s.path, err)
	}

	base := int64(len(fileHeader))
	committed := int64(0) // offset into data of the last applied marker's end
	staged := make(map[string]span)
	stagedCount := 0
	for off := int64(0); off < int64(len(data)); {
		rec, next, ok := scanRecord(data, off)
		if !ok {
			break // torn or corrupt tail
		}
		if rec.typ == recPut {
			staged[string(rec.key)] = rec.val
			stagedCount++
		} else {
			if rec.count != uint64(stagedCount) {
				break // marker disagrees with the batch it closes: torn
			}
			for k, sp := range staged {
				s.index[k] = span{off: base + sp.off, n: sp.n}
			}
			staged = make(map[string]span)
			stagedCount = 0
			committed = next
		}
		off = next
	}
	s.size = base + committed
	if s.size < info.Size() {
		if err := s.f.Truncate(s.size); err != nil {
			return fmt.Errorf("store: truncating torn tail of %s: %w", s.path, err)
		}
	}
	return nil
}

// scannedRecord is one decoded log record.
type scannedRecord struct {
	typ   byte
	key   []byte
	val   span   // for puts: value position relative to data start
	count uint64 // for commit markers
}

// scanRecord decodes the record at data[off:], returning it, the offset of
// the next record, and whether the record was complete and CRC-valid.
func scanRecord(data []byte, off int64) (scannedRecord, int64, bool) {
	var rec scannedRecord
	i := off
	if i >= int64(len(data)) {
		return rec, 0, false
	}
	rec.typ = data[i]
	i++
	readUvarint := func() (uint64, bool) {
		v, n := binary.Uvarint(data[i:])
		if n <= 0 {
			return 0, false
		}
		i += int64(n)
		return v, true
	}
	readBytes := func() ([]byte, bool) {
		n, ok := readUvarint()
		if !ok || n > uint64(int64(len(data))-i) {
			return nil, false
		}
		b := data[i : i+int64(n)]
		i += int64(n)
		return b, true
	}
	switch rec.typ {
	case recPut:
		key, ok := readBytes()
		if !ok {
			return rec, 0, false
		}
		rec.key = key
		n, ok := readUvarint()
		if !ok || n > uint64(int64(len(data))-i) {
			return rec, 0, false
		}
		rec.val = span{off: i, n: int(n)}
		i += int64(n)
	case recCommit:
		n, ok := readUvarint()
		if !ok {
			return rec, 0, false
		}
		rec.count = n
	default:
		return rec, 0, false
	}
	if int64(len(data))-i < 4 {
		return rec, 0, false
	}
	want := binary.BigEndian.Uint32(data[i : i+4])
	if crc32.ChecksumIEEE(data[off:i]) != want {
		return rec, 0, false
	}
	return rec, i + 4, true
}

// Name implements KV.
func (s *File) Name() string { return "file" }

// Get implements KV: staged writes first, then the committed index.
func (s *File) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, fmt.Errorf("store: %s is closed", s.path)
	}
	if val, ok := s.pendingPut[key]; ok {
		out := make([]byte, len(val))
		copy(out, val)
		return out, true, nil
	}
	sp, ok := s.index[key]
	if !ok {
		return nil, false, nil
	}
	out := make([]byte, sp.n)
	if _, err := s.f.ReadAt(out, sp.off); err != nil {
		return nil, false, fmt.Errorf("store: reading %s at %d: %w", s.path, sp.off, err)
	}
	return out, true, nil
}

// Put implements KV.
func (s *File) Put(key string, val []byte) error {
	cp := make([]byte, len(val))
	copy(cp, val)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("store: %s is closed", s.path)
	}
	s.pendingPut[key] = cp
	full := s.batchFullLocked()
	s.mu.Unlock()
	if full {
		return s.Flush()
	}
	return nil
}

// batchFullLocked reports whether the staged batch has reached the auto-flush
// threshold. Caller holds s.mu.
func (s *File) batchFullLocked() bool {
	if s.opts.BatchPuts < 0 {
		return false
	}
	limit := s.opts.BatchPuts
	if limit == 0 {
		limit = DefaultBatchPuts
	}
	return len(s.pendingPut) >= limit
}

// List implements KV.
func (s *File) List(prefix string) ([]string, error) {
	s.mu.Lock()
	keys := make([]string, 0, len(s.index)+len(s.pendingPut))
	for k := range s.index {
		if _, staged := s.pendingPut[k]; staged {
			continue
		}
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			keys = append(keys, k)
		}
	}
	for k := range s.pendingPut {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			keys = append(keys, k)
		}
	}
	s.mu.Unlock()
	sort.Strings(keys)
	return keys, nil
}

// Flush implements KV: it appends the staged batch — records in sorted key
// order, then one commit marker — and merges it into the live index.
func (s *File) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.flushLocked()
}

func (s *File) flushLocked() error {
	if s.closed {
		return fmt.Errorf("store: %s is closed", s.path)
	}
	if len(s.pendingPut) == 0 {
		return nil
	}
	putKeys := make([]string, 0, len(s.pendingPut))
	for k := range s.pendingPut {
		putKeys = append(putKeys, k)
	}
	sort.Strings(putKeys)

	buf := make([]byte, 0, 1024)
	spans := make(map[string]span, len(putKeys))
	appendRecord := func(build func([]byte) []byte) {
		start := len(buf)
		buf = build(buf)
		var crc [4]byte
		binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf[start:]))
		buf = append(buf, crc[:]...)
	}
	for _, k := range putKeys {
		val := s.pendingPut[k]
		appendRecord(func(b []byte) []byte {
			b = append(b, recPut)
			b = binary.AppendUvarint(b, uint64(len(k)))
			b = append(b, k...)
			b = binary.AppendUvarint(b, uint64(len(val)))
			spans[k] = span{off: s.size + int64(len(b)), n: len(val)}
			return append(b, val...)
		})
	}
	appendRecord(func(b []byte) []byte {
		b = append(b, recCommit)
		return binary.AppendUvarint(b, uint64(len(putKeys)))
	})

	if _, err := s.f.WriteAt(buf, s.size); err != nil {
		return fmt.Errorf("store: appending batch to %s: %w", s.path, err)
	}
	if s.opts.Sync {
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: syncing %s: %w", s.path, err)
		}
	}
	s.size += int64(len(buf))
	for k, sp := range spans {
		s.index[k] = sp
	}
	s.pendingPut = make(map[string][]byte)

	m := fileMetrics()
	m.batches.Inc()
	m.batchPuts.Add(uint64(len(putKeys)))
	m.bytesWritten.Add(uint64(len(buf)))
	return nil
}

// Close implements KV: flush, then release the file handle.
func (s *File) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if err := s.flushLocked(); err != nil {
		return err
	}
	s.closed = true
	return s.f.Close()
}

var _ KV = (*File)(nil)
