package zkedb

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"desword/internal/qmercurial"
	"desword/internal/zkedb/store"
)

// witnessKeys are the committed keys and absent keys the witness-memo tests
// prove: enough committed keys that their paths share upper levels.
func witnessKeys(db map[string][]byte) (present, absent []string) {
	for i := 0; i < len(db); i++ {
		present = append(present, fmt.Sprintf("product-%03d", i))
	}
	for i := 0; i < 4; i++ {
		absent = append(absent, fmt.Sprintf("absent-%03d", i))
	}
	return present, absent
}

// hardDepth returns how many levels of key's path run through hard nodes
// with a committed child at the key's slot; a non-ownership proof for key
// teases those levels and the next with SOpenHard.
func hardDepth(t *testing.T, dec *Decommitment, key string) int {
	t.Helper()
	digits := dec.crs.digits(dec.crs.digest(key))
	cur := dec.root
	for level := 0; level < dec.crs.Params.H; level++ {
		if !cur.hasSlot(digits[level]) {
			return level
		}
		next, err := dec.childAt(digits[:level+1], nil)
		if err != nil {
			t.Fatal(err)
		}
		cur = next
	}
	t.Fatalf("%q is committed", key)
	return 0
}

// requireSameTeases asserts that two non-ownership proofs open levels
// [0, depth] with identical hard-node teases: slot, message, V, witness,
// mercurial tease and child.
func requireSameTeases(t *testing.T, a, b *Proof, depth int, key string) {
	t.Helper()
	for level := 0; level <= depth; level++ {
		sa, sb := a.Levels[level].Soft, b.Levels[level].Soft
		same := sa.Slot == sb.Slot &&
			sa.Message.Cmp(sb.Message) == 0 &&
			sa.V.Cmp(sb.V) == 0 &&
			sa.Witness.Lambda.Cmp(sb.Witness.Lambda) == 0 &&
			sa.MCTease.M.Cmp(sb.MCTease.M) == 0 &&
			sa.MCTease.Tau.Cmp(sb.MCTease.Tau) == 0 &&
			a.Levels[level].Child.Equal(b.Levels[level].Child)
		if !same {
			t.Fatalf("%q: hard-node tease at level %d differs", key, level)
		}
	}
}

// TestWitnessMemoByteIdentity pins that the witness memo changes no proof
// byte: on the mem and file backends, every committed key's ownership proof
// from a memo-warm decommitment equals byte for byte the proof a cold
// OpenDecommitment over the same store computes, and an absent key's
// hard-node teases are equal. The file case bounds the warm side's cache,
// so evicted nodes come back with empty memos mid-run.
func TestWitnessMemoByteIdentity(t *testing.T) {
	crs := testCRS(t)
	db := testDB(24)
	present, absent := witnessKeys(db)
	fileKV, _ := openFileStore(t, "witness.kv")
	for _, tc := range []struct {
		name  string
		kv    store.KV
		cache int
	}{
		{"mem", store.NewMem(), 0},
		{"file", fileKV, 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, warm, err := crs.Commit(db, CommitOptions{Store: tc.kv, CacheNodes: tc.cache})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			for _, key := range append(present, absent...) {
				if _, err := warm.Prove(ctx, key); err != nil {
					t.Fatal(err)
				}
			}
			cold, err := OpenDecommitment(crs, tc.kv, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, key := range present {
				if !bytes.Equal(proveBytes(t, warm, key), proveBytes(t, cold, key)) {
					t.Fatalf("%q: memo-warm ownership proof differs from a cold one", key)
				}
			}
			for _, key := range absent {
				pw, err := warm.Prove(ctx, key)
				if err != nil {
					t.Fatal(err)
				}
				pc, err := cold.Prove(ctx, key)
				if err != nil {
					t.Fatal(err)
				}
				requireSameTeases(t, pw, pc, hardDepth(t, cold, key), key)
			}
		})
	}
}

// stripMemos replaces the decommitment of every internal node on key's
// path with a copy that has no witness memo, so proofs of key compute each
// witness afresh as they did before the memo existed.
func stripMemos(t *testing.T, dec *Decommitment, key string) {
	t.Helper()
	digits := dec.crs.digits(dec.crs.digest(key))
	for level := 0; level < dec.crs.Params.H; level++ {
		n, err := dec.nodeAt(prefixKey(digits[:level]), nil)
		if err != nil {
			t.Fatal(err)
		}
		n.qDec = qmercurial.HardDecommit{Messages: n.qDec.Messages, Hiding: n.qDec.Hiding, V: n.qDec.V, MCDec: n.qDec.MCDec}
	}
}

// TestWitnessMemoSkipsOpen pins that a repeat ownership proof runs no
// rsavc.Open: every level's witness is the very value the first proof
// stored, and the repeat allocates about H·a fewer times than the same
// proof over memo-free nodes, a being one rsavc.Open's allocations (exactly
// H·a in a plain run; the bound is half that because math/big's sync.Pool
// buffers, which the race detector drops at random, make single counts
// vary).
func TestWitnessMemoSkipsOpen(t *testing.T) {
	crs := testCRS(t)
	_, dec, err := crs.Commit(testDB(8), CommitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const key = "product-003"
	first, err := dec.Prove(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	repeat, err := dec.Prove(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	for level := range first.Levels {
		if first.Levels[level].Hard.Witness.Lambda != repeat.Levels[level].Hard.Witness.Lambda {
			t.Fatalf("level %d: the repeat proof recomputed its witness", level)
		}
	}
	prove := func() {
		if _, err := dec.Prove(ctx, key); err != nil {
			t.Fatal(err)
		}
	}
	warm := testing.AllocsPerRun(5, prove)
	root := dec.root.qDec
	perOpen := testing.AllocsPerRun(5, func() {
		if _, err := crs.Key.VC.Open(root.Messages, root.Hiding, 0); err != nil {
			t.Fatal(err)
		}
	})
	stripMemos(t, dec, key)
	recompute := testing.AllocsPerRun(5, prove)
	t.Logf("repeat ownership proof: %v allocations memo-warm, %v memo-free; rsavc.Open: %v", warm, recompute, perOpen)
	if saved, want := recompute-warm, float64(crs.Params.H)*perOpen/2; saved < want {
		t.Fatalf("memo-warm proof allocates %v times, memo-free %v: saved %v, want ≥ %v (H=%d × %v per rsavc.Open / 2)",
			warm, recompute, saved, want, crs.Params.H, perOpen)
	}
}

// TestWitnessMemoConcurrentProofs runs many goroutines proving overlapping
// keys on one fresh decommitment, so first openings of shared upper-level
// slots race: every proof must verify, and every ownership proof must equal
// the one a cold reopen computes.
func TestWitnessMemoConcurrentProofs(t *testing.T) {
	crs := testCRS(t)
	kv := store.NewMem()
	db := testDB(16)
	com, dec, err := crs.Commit(db, CommitOptions{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	present, absent := witnessKeys(db)
	keys := append(present, absent...)
	const workers = 8
	got := make([]map[string][]byte, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		got[w] = make(map[string][]byte)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range keys {
				key := keys[(k+3*w)%len(keys)]
				proof, err := dec.Prove(context.Background(), key)
				if err != nil {
					t.Error(err)
					return
				}
				value, ok, err := crs.Verify(com, key, proof)
				want, committed := db[key]
				if err != nil || ok != committed || !bytes.Equal(value, want) {
					t.Errorf("worker %d: proof of %q rejected or wrong: present=%v err=%v", w, key, ok, err)
					return
				}
				if ok {
					enc, err := proof.MarshalBinary()
					if err != nil {
						t.Error(err)
						return
					}
					got[w][key] = enc
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	cold, err := OpenDecommitment(crs, kv, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range present {
		want := proveBytes(t, cold, key)
		for w := range got {
			if !bytes.Equal(got[w][key], want) {
				t.Fatalf("worker %d: ownership proof of %q differs from a cold one", w, key)
			}
		}
	}
}

// TestOwnershipProofsWriteNothing pins that the memo is never stored:
// proving every committed key, twice, leaves the node store exactly as the
// commit left it.
func TestOwnershipProofsWriteNothing(t *testing.T) {
	crs := testCRS(t)
	db := testDB(12)
	for _, name := range []string{"mem", "file"} {
		t.Run(name, func(t *testing.T) {
			var kv store.KV = store.NewMem()
			if name == "file" {
				kv, _ = openFileStore(t, "nowrite.kv")
			}
			_, dec, err := crs.Commit(db, CommitOptions{Store: kv})
			if err != nil {
				t.Fatal(err)
			}
			before := storeImage(t, dec)
			present, _ := witnessKeys(db)
			for round := 0; round < 2; round++ {
				for _, key := range present {
					proveBytes(t, dec, key)
				}
			}
			if !bytes.Equal(before, storeImage(t, dec)) {
				t.Fatal("ownership proofs changed the node store")
			}
		})
	}
}
