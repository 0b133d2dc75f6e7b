package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// openTestFile opens a file store under t.TempDir and registers cleanup.
func openTestFile(t *testing.T, opts FileOptions) (*File, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "store.kv")
	s, err := OpenFile(path, opts)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, path
}

// TestKVContract runs the behaviour both backends must share: staged writes
// are read-your-own, List is sorted and prefix-filtered, and an overwrite
// replaces a record rather than adding a second one.
func TestKVContract(t *testing.T) {
	backends := []struct {
		name string
		open func(t *testing.T) KV
	}{
		{"mem", func(t *testing.T) KV { return NewMem() }},
		{"file", func(t *testing.T) KV { s, _ := openTestFile(t, FileOptions{BatchPuts: -1}); return s }},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			kv := b.open(t)
			if _, ok, err := kv.Get("missing"); err != nil || ok {
				t.Fatalf("Get(missing) = ok=%v err=%v, want absent", ok, err)
			}
			puts := map[string]string{
				"n/a": "node-a", "n/ab": "node-ab", "s/a": "soft-a", "m/params": "geometry",
			}
			for k, v := range puts {
				if err := kv.Put(k, []byte(v)); err != nil {
					t.Fatalf("Put(%s): %v", k, err)
				}
			}
			// Staged writes must be visible before any Flush.
			for k, v := range puts {
				got, ok, err := kv.Get(k)
				if err != nil || !ok || string(got) != v {
					t.Fatalf("Get(%s) = %q ok=%v err=%v, want %q", k, got, ok, err, v)
				}
			}
			keys, err := kv.List("n/")
			if err != nil {
				t.Fatalf("List: %v", err)
			}
			if want := []string{"n/a", "n/ab"}; !reflect.DeepEqual(keys, want) {
				t.Fatalf("List(n/) = %v, want %v", keys, want)
			}
			if err := kv.Flush(); err != nil {
				t.Fatalf("Flush: %v", err)
			}
			// Overwrite moves the record, not duplicates it.
			if err := kv.Put("n/a", []byte("node-a-v2")); err != nil {
				t.Fatalf("re-Put: %v", err)
			}
			got, ok, err := kv.Get("n/a")
			if err != nil || !ok || string(got) != "node-a-v2" {
				t.Fatalf("Get after overwrite = %q ok=%v err=%v", got, ok, err)
			}
			keys, err = kv.List("n/")
			if err != nil {
				t.Fatalf("List after overwrite: %v", err)
			}
			if want := []string{"n/a", "n/ab"}; !reflect.DeepEqual(keys, want) {
				t.Fatalf("List(n/) after overwrite = %v, want %v", keys, want)
			}
		})
	}
}

// TestFileReopen pins durability: committed batches survive a close/reopen
// byte for byte, including overwrites.
func TestFileReopen(t *testing.T) {
	s, path := openTestFile(t, FileOptions{})
	records := map[string]string{"n/": "root", "n/a": "child", "d/key": "value", "m/seed": "seed"}
	for k, v := range records {
		if err := s.Put(k, []byte(v)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Put("n/a", []byte("child-v2")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	records["n/a"] = "child-v2"
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	re, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	for k, v := range records {
		got, ok, err := re.Get(k)
		if err != nil || !ok || string(got) != v {
			t.Fatalf("after reopen Get(%s) = %q ok=%v err=%v, want %q", k, got, ok, err, v)
		}
	}
	if keys, err := re.List(""); err != nil || len(keys) != len(records) {
		t.Fatalf("after reopen List = %v (err %v), want %d keys", keys, err, len(records))
	}
}

// TestFileUncommittedBatchNotDurable pins the batch boundary: records staged
// but never flushed are invisible to a second handle replaying the log —
// exactly what a crashed process would leave behind.
func TestFileUncommittedBatchNotDurable(t *testing.T) {
	s, path := openTestFile(t, FileOptions{BatchPuts: -1})
	if err := s.Put("n/committed", []byte("yes")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Put("n/staged", []byte("no")); err != nil {
		t.Fatalf("Put: %v", err)
	}

	crashed, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer crashed.Close()
	if _, ok, _ := crashed.Get("n/committed"); !ok {
		t.Fatal("committed record lost")
	}
	if _, ok, _ := crashed.Get("n/staged"); ok {
		t.Fatal("staged-only record survived the simulated crash")
	}
}

// TestFileAutoFlush pins the BatchPuts threshold: the Nth staged record
// commits the batch without an explicit Flush.
func TestFileAutoFlush(t *testing.T) {
	s, path := openTestFile(t, FileOptions{BatchPuts: 3})
	for _, k := range []string{"n/a", "n/b", "n/c"} {
		if err := s.Put(k, []byte("v")); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	re, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	keys, err := re.List("n/")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(keys) != 3 {
		t.Fatalf("auto-flush wrote %d records, want 3", len(keys))
	}
}

// TestFileTornTailTruncated pins crash recovery: garbage appended after the
// last commit marker is discarded on reopen and the file truncated back to
// the committed prefix, after which the store accepts new batches.
func TestFileTornTailTruncated(t *testing.T) {
	s, path := openTestFile(t, FileOptions{})
	if err := s.Put("n/good", []byte("kept")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}

	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("append open: %v", err)
	}
	if _, err := f.Write([]byte{recPut, 0xff, 0x03, 0x01}); err != nil {
		t.Fatalf("append garbage: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatalf("reopen with torn tail: %v", err)
	}
	if got, ok, _ := re.Get("n/good"); !ok || string(got) != "kept" {
		t.Fatalf("committed record lost to torn tail: %q ok=%v", got, ok)
	}
	if err := re.Put("n/after", []byte("new")); err != nil {
		t.Fatalf("Put after recovery: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if len(after) <= len(committed) {
		t.Fatalf("recovered file did not grow past committed prefix: %d <= %d", len(after), len(committed))
	}
	if string(after[:len(committed)]) != string(committed) {
		t.Fatal("recovery rewrote the committed prefix")
	}
}

// TestFileTruncatedBatchDropped pins batch atomicity: a batch whose commit
// marker was cut off is dropped whole, leaving earlier batches intact.
func TestFileTruncatedBatchDropped(t *testing.T) {
	s, path := openTestFile(t, FileOptions{})
	if err := s.Put("n/first", []byte("batch1")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := s.Put("n/second", []byte("batch2")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	// Cut into batch2's commit marker (marker = 1 type + 1 uvarint + 4 crc).
	if err := os.Truncate(path, info.Size()-3); err != nil {
		t.Fatalf("Truncate: %v", err)
	}

	re, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if _, ok, _ := re.Get("n/first"); !ok {
		t.Fatal("batch1 lost")
	}
	if _, ok, _ := re.Get("n/second"); ok {
		t.Fatal("half-committed batch2 applied")
	}
}

// TestFileCommitCountMismatch pins the marker sanity check: a CRC-valid
// commit marker whose record count disagrees with the batch it closes is
// treated as a torn tail, not applied.
func TestFileCommitCountMismatch(t *testing.T) {
	s, path := openTestFile(t, FileOptions{})
	if err := s.Put("n/base", []byte("ok")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Append a stray marker claiming a 5-record batch where none was staged.
	marker := []byte{recCommit}
	marker = binary.AppendUvarint(marker, 5)
	var crc [4]byte
	binary.BigEndian.PutUint32(crc[:], crc32.ChecksumIEEE(marker))
	marker = append(marker, crc[:]...)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatalf("append open: %v", err)
	}
	if _, err := f.Write(marker); err != nil {
		t.Fatalf("append marker: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re, err := OpenFile(path, FileOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if _, ok, _ := re.Get("n/base"); !ok {
		t.Fatal("valid batch before the stray marker was lost")
	}
}

// TestFileBadHeader pins that foreign files are refused, not replayed.
func TestFileBadHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not-a-store")
	if err := os.WriteFile(path, []byte("{\"json\": true}\n"), 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := OpenFile(path, FileOptions{}); !errors.Is(err, ErrBadFile) {
		t.Fatalf("OpenFile(foreign) = %v, want ErrBadFile", err)
	}
}

// TestFileRefusesVersion1Log pins the format version: a log with the
// version 1 header, which could hold delete records, is refused and left
// byte for byte as it was, not replayed and truncated at its first delete.
func TestFileRefusesVersion1Log(t *testing.T) {
	var log []byte
	record := func(fields ...[]byte) {
		start := len(log)
		for _, f := range fields {
			log = append(log, f...)
		}
		log = binary.BigEndian.AppendUint32(log, crc32.ChecksumIEEE(log[start:]))
	}
	lenPrefixed := func(s string) []byte {
		return append(binary.AppendUvarint(nil, uint64(len(s))), s...)
	}
	log = append(log, "DSWKV1\n"...)
	record([]byte{0x01}, lenPrefixed("n/a"), lenPrefixed("kept")) // put
	record([]byte{0x02}, lenPrefixed("n/b"))                      // delete
	record([]byte{0x03}, binary.AppendUvarint(nil, 2))            // commit
	path := filepath.Join(t.TempDir(), "v1.kv")
	if err := os.WriteFile(path, log, 0o600); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	if _, err := OpenFile(path, FileOptions{}); !errors.Is(err, ErrBadFile) {
		t.Fatalf("OpenFile(version 1 log) = %v, want ErrBadFile", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if !bytes.Equal(after, log) {
		t.Fatal("refusing the version 1 log changed its bytes")
	}
}

// TestFileClosedRejects pins the closed-store error paths.
func TestFileClosedRejects(t *testing.T) {
	s, _ := openTestFile(t, FileOptions{})
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := s.Put("n/x", nil); err == nil {
		t.Fatal("Put on closed store succeeded")
	}
	if _, _, err := s.Get("n/x"); err == nil {
		t.Fatal("Get on closed store succeeded")
	}
}
