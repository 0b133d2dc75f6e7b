package store

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreReopen hammers the log replay path with arbitrary file contents —
// torn tails, truncated batches, bit flips, stray markers. Replay must never
// panic; when it accepts a file, the recovered store must be coherent (Get
// agrees with List) and must keep accepting committed batches that survive
// another reopen.
func FuzzStoreReopen(f *testing.F) {
	// Seed with a real two-batch log and mutations of it.
	seedPath := filepath.Join(f.TempDir(), "seed.kv")
	s, err := OpenFile(seedPath, FileOptions{})
	if err != nil {
		f.Fatal(err)
	}
	for _, k := range []string{"n/", "n/a", "s/ab", "d/key-1", "m/params"} {
		if err := s.Put(k, []byte("value of "+k)); err != nil {
			f.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		f.Fatal(err)
	}
	if err := s.Put("s/ab", []byte("overwritten")); err != nil {
		f.Fatal(err)
	}
	if err := s.Put("n/b", []byte("second batch")); err != nil {
		f.Fatal(err)
	}
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	seed, err := os.ReadFile(seedPath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-3])     // torn commit marker
	f.Add(seed[:len(seed)*2/3])   // truncated mid-batch
	f.Add(seed[:len(fileHeader)]) // header only
	f.Add([]byte{})
	f.Add([]byte(fileHeader + "\x01\x03n/x\x05hello"))
	flipped := append([]byte(nil), seed...)
	flipped[len(flipped)/2] ^= 0x40
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.kv")
		if err := os.WriteFile(path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		kv, err := OpenFile(path, FileOptions{})
		if err != nil {
			return // refused: acceptable for arbitrary bytes
		}
		defer kv.Close()
		keys, err := kv.List("")
		if err != nil {
			t.Fatalf("List on recovered store: %v", err)
		}
		for _, k := range keys {
			if _, ok, err := kv.Get(k); err != nil || !ok {
				t.Fatalf("Get(%q) = ok=%v err=%v for listed key", k, ok, err)
			}
		}
		// The recovered store must still take writes that survive a reopen.
		if err := kv.Put("n/fuzz-probe", []byte("probe")); err != nil {
			t.Fatalf("Put on recovered store: %v", err)
		}
		if err := kv.Close(); err != nil {
			t.Fatalf("Close on recovered store: %v", err)
		}
		re, err := OpenFile(path, FileOptions{})
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		defer re.Close()
		if _, ok, err := re.Get("n/fuzz-probe"); err != nil || !ok {
			t.Fatalf("probe record lost across reopen: ok=%v err=%v", ok, err)
		}
	})
}
