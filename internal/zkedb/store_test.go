package zkedb

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
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

// TestStoreSmoke is the CI smoke: commit the whole database through the
// file backend with a small batch size, close the store, reopen it cold with
// a bounded cache, and verify ownership and non-ownership proofs against the
// commitment — the lifecycle a restarted durable participant depends on.
func TestStoreSmoke(t *testing.T) {
	crs := testCRS(t)
	db := testDB(6)
	db["smoke-extra"] = []byte("late arrival")
	seed := []byte("store-smoke-seed")
	path := filepath.Join(t.TempDir(), "smoke.kv")
	kv, err := store.OpenFile(path, store.FileOptions{BatchPuts: 16})
	if err != nil {
		t.Fatal(err)
	}
	com, _, err := crs.Commit(db, CommitOptions{Seed: seed, Store: kv})
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
		value, present, err := crs.Verify(com, key, proof)
		if err != nil || !present || !bytes.Equal(value, db[key]) {
			t.Fatalf("smoke proof for %q failed: value=%q present=%v err=%v", key, value, present, err)
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
