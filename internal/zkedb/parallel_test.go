package zkedb

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
)

// TestCommitParallelByteIdentical pins the contract that makes the worker
// pool safe to ship: under a fixed seed, the commitment AND the full
// node-store image are byte-for-byte identical at every worker count.
// Position-keyed randomness (drbg.go) is what guarantees this — any code
// change that makes a randomness draw depend on build order fails here.
func TestCommitParallelByteIdentical(t *testing.T) {
	crs := testCRS(t)
	seed := []byte("parallel-commit-determinism-seed")
	db := testDB(9) // spans several subtrees at TestParams geometry

	type build struct {
		com Commitment
		dec []byte
	}
	builds := make(map[int]build)
	for _, workers := range []int{1, 2, 8} {
		com, dec, err := crs.Commit(db, CommitOptions{Workers: workers, Seed: seed})
		if err != nil {
			t.Fatalf("Commit(workers=%d): %v", workers, err)
		}
		builds[workers] = build{com: com, dec: storeImage(t, dec)}
	}

	serial := builds[1]
	for _, workers := range []int{2, 8} {
		got := builds[workers]
		if !bytes.Equal(serial.com.Bytes(), got.com.Bytes()) {
			t.Errorf("workers=%d: commitment differs from serial build", workers)
		}
		if !bytes.Equal(serial.dec, got.dec) {
			t.Errorf("workers=%d: node-store image differs from serial build", workers)
		}
	}

	// The image comparison must be able to fail: another seed, another image.
	_, other, err := crs.Commit(db, CommitOptions{Workers: 1, Seed: []byte("another-seed")})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(serial.dec, storeImage(t, other)) {
		t.Error("a build under another seed has the same node-store image")
	}
}

// TestCommitParallelProofsVerify exercises the pool end to end: a commitment
// built with many workers must yield ownership and non-ownership proofs that
// verify — i.e. parallelism must not just reproduce bytes under a seed, it
// must produce a sound tree with fresh randomness too.
func TestCommitParallelProofsVerify(t *testing.T) {
	crs := testCRS(t)
	com, dec, err := crs.Commit(testDB(5), CommitOptions{Workers: 8})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	for _, key := range []string{"product-003", "never-committed"} {
		proof, err := dec.Prove(context.Background(), key)
		if err != nil {
			t.Fatalf("Prove(%s): %v", key, err)
		}
		if _, _, err := crs.Verify(com, key, proof); err != nil {
			t.Fatalf("Verify(%s): %v", key, err)
		}
	}
}

// TestCommitConcurrentBuilds runs several parallel commits against one shared
// CRS at once; combined with the race detector (make race) this pins that the
// builder keeps all its mutable state build-local.
func TestCommitConcurrentBuilds(t *testing.T) {
	crs := testCRS(t)
	db := testDB(4)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, dec, err := crs.Commit(db, CommitOptions{Workers: 4})
			if err == nil {
				_, err = dec.Prove(context.Background(), "product-001")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent build %d: %v", i, err)
		}
	}
}

// TestProveCancelled pins the ctx-first contract: a cancelled context aborts
// proof generation between tree levels with a wrapped context error.
func TestProveCancelled(t *testing.T) {
	crs := testCRS(t)
	_, dec, err := crs.Commit(testDB(2), CommitOptions{})
	if err != nil {
		t.Fatalf("Commit: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dec.Prove(ctx, "product-000"); err == nil {
		t.Fatal("Prove with cancelled ctx succeeded")
	} else if !errors.Is(err, context.Canceled) {
		t.Fatalf("Prove error %v does not wrap context.Canceled", err)
	}
}
