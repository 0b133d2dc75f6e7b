package zkedb

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"desword/internal/zkedb/store"
)

// openFileStore opens a file-backed store under t.TempDir.
func openFileStore(t *testing.T, name string) (*store.File, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	kv, err := store.OpenFile(path, store.FileOptions{})
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	t.Cleanup(func() { _ = kv.Close() })
	return kv, path
}

// proveBytes returns the compact encoding of a proof for key.
func proveBytes(t *testing.T, dec *Decommitment, key string) []byte {
	t.Helper()
	proof, err := dec.Prove(context.Background(), key)
	if err != nil {
		t.Fatalf("Prove(%q): %v", key, err)
	}
	out, err := proof.MarshalBinary()
	if err != nil {
		t.Fatalf("MarshalBinary(%q): %v", key, err)
	}
	return out
}

// storeImage returns every record in the decommitment's node store — tree
// nodes, soft entries, database entries and metadata alike — sorted by key,
// each key and value length-prefixed. Two trees with equal images hold the
// same persisted state byte for byte; the byte-identity tests compare it.
func storeImage(t *testing.T, dec *Decommitment) []byte {
	t.Helper()
	kv := dec.Store()
	keys, err := kv.List("")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	var img []byte
	for _, key := range keys {
		val, ok, err := kv.Get(key)
		if err != nil || !ok {
			t.Fatalf("Get(%q): ok=%v err=%v", key, ok, err)
		}
		img = binary.AppendUvarint(img, uint64(len(key)))
		img = append(img, key...)
		img = binary.AppendUvarint(img, uint64(len(val)))
		img = append(img, val...)
	}
	return img
}

// requireSameChain asserts two non-ownership proofs for key show the same
// commitment chain and leaf tease. The per-level openings fabricate fresh
// hiding randomness on every call (rsavc.Fabricate), so full proof bytes are
// never comparable for absent keys; the deterministic invariant — what
// repeat-query consistency and cross-backend identity require — is the
// sequence of child commitments the verifier is shown, plus the teased leaf.
func requireSameChain(t *testing.T, a, b *Decommitment, key string) {
	t.Helper()
	pa, err := a.Prove(context.Background(), key)
	if err != nil {
		t.Fatalf("Prove(%q): %v", key, err)
	}
	pb, err := b.Prove(context.Background(), key)
	if err != nil {
		t.Fatalf("Prove(%q): %v", key, err)
	}
	requireSameChainProofs(t, pa, pb, key)
}

func requireSameChainProofs(t *testing.T, pa, pb *Proof, key string) {
	t.Helper()
	if pa.Kind != ProofNonOwnership || pb.Kind != ProofNonOwnership {
		t.Fatalf("expected non-ownership proofs for %q", key)
	}
	if len(pa.Levels) != len(pb.Levels) {
		t.Fatalf("chain length differs for %q: %d vs %d", key, len(pa.Levels), len(pb.Levels))
	}
	for i := range pa.Levels {
		if !pa.Levels[i].Child.Equal(pb.Levels[i].Child) {
			t.Fatalf("soft chain for %q differs at level %d", key, i)
		}
	}
	if pa.LeafTease.M.Cmp(pb.LeafTease.M) != 0 || pa.LeafTease.Tau.Cmp(pb.LeafTease.Tau) != 0 {
		t.Fatalf("leaf tease for %q differs", key)
	}
}

// TestCrossBackendByteIdentity pins the backend-transparency invariant: the
// same seeded database committed into the mem and file backends yields the
// byte-identical commitment, byte-identical ownership and non-ownership
// proofs, and the byte-identical node-store image.
func TestCrossBackendByteIdentity(t *testing.T) {
	crs := testCRS(t)
	db := testDB(9)
	seed := []byte("cross-backend-seed")

	memCom, memDec, err := crs.Commit(db, CommitOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	kv, _ := openFileStore(t, "cross.kv")
	fileCom, fileDec, err := crs.Commit(db, CommitOptions{Seed: seed, Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(memCom.Bytes(), fileCom.Bytes()) {
		t.Fatal("commitment differs between mem and file backends")
	}
	for _, key := range []string{"product-000", "product-004", "product-008"} {
		if !bytes.Equal(proveBytes(t, memDec, key), proveBytes(t, fileDec, key)) {
			t.Fatalf("ownership proof for %q differs between backends", key)
		}
	}
	for _, key := range []string{"absent-x", "absent-y"} {
		requireSameChain(t, memDec, fileDec, key)
	}
	if !bytes.Equal(storeImage(t, memDec), storeImage(t, fileDec)) {
		t.Fatal("node-store image differs between backends")
	}
}

// TestUpdateMatchesFreshRebuild pins the incremental-commit invariant: a
// seeded tree updated with a delta — new keys and overwrites alike — reaches
// the byte-identical commitment, proofs and node-store image of a fresh
// seeded Commit over the merged database, even when a non-ownership proof
// lazily created soft entries before the update.
func TestUpdateMatchesFreshRebuild(t *testing.T) {
	crs := testCRS(t)
	seed := []byte("update-rebuild-seed")
	db := testDB(8)
	_, dec, err := crs.Commit(db, CommitOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dec.Prove(context.Background(), "still-absent"); err != nil {
		t.Fatal(err)
	}

	delta := map[string][]byte{
		"update-new-1": []byte("fresh value 1"),
		"update-new-2": []byte("fresh value 2"),
		"product-003":  []byte("overwritten value"), // existing key
	}
	updatedCom, err := dec.Update(context.Background(), delta)
	if err != nil {
		t.Fatalf("Update: %v", err)
	}

	merged := make(map[string][]byte, len(db)+len(delta))
	for k, v := range db {
		merged[k] = v
	}
	for k, v := range delta {
		merged[k] = v
	}
	rebuiltCom, rebuiltDec, err := crs.Commit(merged, CommitOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(updatedCom.Bytes(), rebuiltCom.Bytes()) {
		t.Fatal("updated commitment differs from fresh rebuild")
	}
	for key := range merged {
		if !bytes.Equal(proveBytes(t, dec, key), proveBytes(t, rebuiltDec, key)) {
			t.Fatalf("proof for %q differs between update and rebuild", key)
		}
	}
	requireSameChain(t, dec, rebuiltDec, "still-absent")
	if !bytes.Equal(storeImage(t, dec), storeImage(t, rebuiltDec)) {
		t.Fatal("node-store image differs between update and rebuild")
	}
}

// TestUpdatePropertyEquivalence is the randomized version: arbitrary split
// of a key set into base and delta batches must converge to the fresh-build
// commitment, whatever the batch boundaries.
func TestUpdatePropertyEquivalence(t *testing.T) {
	crs := testCRS(t)
	seed := []byte("update-property-seed")
	const total = 12
	for _, splits := range [][]int{{6, 3, 3}, {1, 11}, {11, 1}, {4, 4, 4}} {
		t.Run(fmt.Sprintf("splits=%v", splits), func(t *testing.T) {
			all := make(map[string][]byte, total)
			next := 0
			take := func(n int) map[string][]byte {
				batch := make(map[string][]byte, n)
				for i := 0; i < n; i++ {
					key := fmt.Sprintf("prop-key-%02d", next)
					val := []byte(fmt.Sprintf("prop-val-%02d", next))
					batch[key] = val
					all[key] = val
					next++
				}
				return batch
			}
			_, dec, err := crs.Commit(take(splits[0]), CommitOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			var com Commitment
			for _, n := range splits[1:] {
				if com, err = dec.Update(context.Background(), take(n)); err != nil {
					t.Fatalf("Update: %v", err)
				}
			}
			want, _, err := crs.Commit(all, CommitOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(com.Bytes(), want.Bytes()) {
				t.Fatal("incremental batches diverged from fresh build")
			}
		})
	}
}

// TestUpdateEdgeCases covers the non-happy paths: empty deltas are no-ops,
// cancelled contexts abort, and invalid keys are rejected.
func TestUpdateEdgeCases(t *testing.T) {
	crs := testCRS(t)
	com, dec, err := crs.Commit(testDB(4), CommitOptions{Seed: []byte("edge-seed")})
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Update(context.Background(), nil)
	if err != nil {
		t.Fatalf("empty Update: %v", err)
	}
	if !bytes.Equal(got.Bytes(), com.Bytes()) {
		t.Fatal("empty Update changed the commitment")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := dec.Update(cancelled, map[string][]byte{"k": []byte("v")}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Update = %v, want context.Canceled", err)
	}
	// The failed update must not have corrupted the tree.
	proof, err := dec.Prove(context.Background(), "product-000")
	if err != nil {
		t.Fatal(err)
	}
	if _, present, err := crs.Verify(com, "product-000", proof); err != nil || !present {
		t.Fatalf("tree broken after cancelled update: present=%v err=%v", present, err)
	}
}

// TestOpenDecommitmentReopen pins the cold-open path: a file-backed tree
// closed and reopened through OpenDecommitment proves against the original
// commitment, lazily and with a bounded cache, and keeps non-ownership soft
// chains identical across the restart. An unseeded tree draws its soft
// entries from crypto/rand, so its identical chain shows the lazily created
// entries were persisted rather than re-derived.
func TestOpenDecommitmentReopen(t *testing.T) {
	crs := testCRS(t)
	for _, tc := range []struct {
		name string
		db   map[string][]byte
		seed []byte
	}{
		{"seeded", testDB(7), []byte("reopen-seed")},
		{"unseeded", testDB(7), nil},
		{"empty_database", nil, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kv, path := openFileStore(t, "reopen.kv")
			com, dec, err := crs.Commit(tc.db, CommitOptions{Seed: tc.seed, Store: kv})
			if err != nil {
				t.Fatal(err)
			}
			preRestart, err := dec.Prove(context.Background(), "ghost-key")
			if err != nil {
				t.Fatal(err)
			}
			if err := kv.Close(); err != nil {
				t.Fatal(err)
			}

			reopened, err := store.OpenFile(path, store.FileOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			cold, err := OpenDecommitment(crs, reopened, 8)
			if err != nil {
				t.Fatalf("OpenDecommitment: %v", err)
			}
			for key, want := range tc.db {
				proof, err := cold.Prove(context.Background(), key)
				if err != nil {
					t.Fatalf("Prove(%q) after reopen: %v", key, err)
				}
				value, present, err := crs.Verify(com, key, proof)
				if err != nil || !present || string(value) != string(want) {
					t.Fatalf("reopened proof for %q failed: present=%v err=%v", key, present, err)
				}
			}
			postRestart, err := cold.Prove(context.Background(), "ghost-key")
			if err != nil {
				t.Fatal(err)
			}
			if _, present, err := crs.Verify(com, "ghost-key", postRestart); err != nil || present {
				t.Fatalf("reopened non-ownership proof failed: present=%v err=%v", present, err)
			}
			requireSameChainProofs(t, preRestart, postRestart, "ghost-key")
			if got := cold.ResidentNodes(); got > 8 {
				t.Fatalf("ResidentNodes = %d, want <= cache bound 8", got)
			}
		})
	}
}

// TestOpenDecommitmentRejects pins the failure modes of the cold open: an
// empty store, a tree committed under another geometry, a truncated root
// record, and a leaf record in the root position.
func TestOpenDecommitmentRejects(t *testing.T) {
	crs := testCRS(t)
	otherCRS, err := CRSGen(Params{Q: 16, H: 8, KeyBits: 32, ModulusBits: 512})
	if err != nil {
		t.Fatal(err)
	}
	committed := func(t *testing.T, under *CRS) store.KV {
		t.Helper()
		kv := store.NewMem()
		if _, _, err := under.Commit(testDB(3), CommitOptions{Store: kv}); err != nil {
			t.Fatal(err)
		}
		return kv
	}
	for _, tc := range []struct {
		name string
		kv   func(t *testing.T) store.KV
	}{
		{"empty_store", func(*testing.T) store.KV { return store.NewMem() }},
		{"mismatched_geometry", func(t *testing.T) store.KV { return committed(t, otherCRS) }},
		{"truncated_root_record", func(t *testing.T) store.KV {
			kv := committed(t, crs)
			rec, _, err := kv.Get(nodeStoreKey(""))
			if err != nil {
				t.Fatal(err)
			}
			if err := kv.Put(nodeStoreKey(""), rec[:len(rec)/2]); err != nil {
				t.Fatal(err)
			}
			return kv
		}},
		{"leaf_record_in_root_position", func(t *testing.T) store.KV {
			kv := committed(t, crs)
			keys, err := kv.List(nsNode)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range keys {
				rec, _, err := kv.Get(key)
				if err != nil {
					t.Fatal(err)
				}
				n, err := decodeNodeRecord(rec, crs.Params)
				if err != nil {
					t.Fatal(err)
				}
				if n.leaf {
					n.level = 0
					if err := kv.Put(nodeStoreKey(""), encodeNodeRecord(n)); err != nil {
						t.Fatal(err)
					}
					return kv
				}
			}
			t.Fatal("committed tree holds no leaf record")
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := OpenDecommitment(crs, tc.kv(t), 0); !errors.Is(err, ErrBadState) {
				t.Fatalf("OpenDecommitment = %v, want ErrBadState", err)
			}
		})
	}
}

// TestCommitRefusesDirtyStore pins ErrStoreInUse: committing into a store
// that already holds a tree must fail rather than interleave two trees.
func TestCommitRefusesDirtyStore(t *testing.T) {
	crs := testCRS(t)
	kv := store.NewMem()
	if _, _, err := crs.Commit(testDB(2), CommitOptions{Store: kv}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := crs.Commit(testDB(2), CommitOptions{Store: kv}); !errors.Is(err, ErrStoreInUse) {
		t.Fatalf("second Commit = %v, want ErrStoreInUse", err)
	}
}

// TestStoreSmoke is the CI smoke: commit through the file backend with a
// small batch size, update incrementally, reopen cold, and verify ownership
// and non-ownership proofs against the updated commitment — the full
// lifecycle a durable participant goes through.
func TestStoreSmoke(t *testing.T) {
	crs := testCRS(t)
	db := testDB(6)
	seed := []byte("store-smoke-seed")
	path := filepath.Join(t.TempDir(), "smoke.kv")
	kv, err := store.OpenFile(path, store.FileOptions{BatchPuts: 16})
	if err != nil {
		t.Fatal(err)
	}
	_, dec, err := crs.Commit(db, CommitOptions{Seed: seed, Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	com, err := dec.Update(context.Background(), map[string][]byte{
		"smoke-extra": []byte("late arrival"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := kv.Close(); err != nil {
		t.Fatal(err)
	}

	reopened, err := store.OpenFile(path, store.FileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	cold, err := OpenDecommitment(crs, reopened, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"product-000", "smoke-extra"} {
		proof, err := cold.Prove(context.Background(), key)
		if err != nil {
			t.Fatalf("Prove(%q): %v", key, err)
		}
		if _, present, err := crs.Verify(com, key, proof); err != nil || !present {
			t.Fatalf("smoke proof for %q failed: present=%v err=%v", key, present, err)
		}
	}
	proof, err := cold.Prove(context.Background(), "smoke-absent")
	if err != nil {
		t.Fatal(err)
	}
	if _, present, err := crs.Verify(com, "smoke-absent", proof); err != nil || present {
		t.Fatalf("smoke non-ownership failed: present=%v err=%v", present, err)
	}
}
