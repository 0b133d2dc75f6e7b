package zkedb

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"strings"

	"desword/internal/obs"
	"desword/internal/trace"
)

// This file implements incremental commitment: revising a committed tree
// for a batch of new (or changed) keys by recomputing only the k
// root-to-leaf paths they touch, instead of rebuilding the whole tree the
// way a fresh Commit would. In DE-Sword terms this is what a participant
// does when a new distribution task hands it k product ids: the POC it has
// already registered must advance to cover the new ids without paying for
// the millions it already committed to.
//
// Byte-identity invariant: for a seeded tree, Update(delta) produces the
// exact bytes a fresh seeded Commit over (db ∪ delta) would — the same
// commitment, the same stored node records, the same serialized
// decommitment. This holds because all commitment randomness is keyed by
// tree position, never by draw order (drbg.go): a recommitted path node
// re-derives its original stream, untouched slots keep their old messages
// verbatim, and fresh subtrees draw exactly what a from-scratch build at
// those positions would. The equivalence is pinned by
// TestUpdateMatchesFreshRebuild.
//
// Soft-entry hygiene: a position that transitions empty→occupied had a
// pinned soft commitment (and possibly a lazily grown chain below it from
// past non-ownership proofs). Those records are purged before the new
// subtree is built, both because they are unreachable afterwards and
// because a fresh rebuild would not contain them — leaving them would break
// the byte-identity of the serialized state. Purging them is sound: they
// were only ever teased (soft commitments bind to nothing), and the
// commitment they hung off no longer exists.

// updateMetrics times incremental updates, labelled by store backend. The
// registry caches series, so the lookup is cheap relative to an update.
func updateMetrics(backend string) *obs.Histogram {
	return obs.Default.Histogram("desword_zkedb_update_seconds",
		"ZK-EDB incremental commitment update time.", nil,
		"backend", backend)
}

// Update revises the committed database with delta (inserting new keys,
// overwriting existing ones) and returns the new commitment, recomputing
// only the tree paths delta touches. It excludes concurrent Prove calls for
// its duration; proofs issued before an Update verify only against the old
// commitment, which is the intended semantics — each registered POC version
// answers for its own snapshot.
//
// Update is not crash-atomic on a file store: a crash mid-update can leave
// the tree between versions (batches auto-commit when full). A reopened
// store remains structurally valid — every committed batch is internally
// consistent — so callers that need all-or-nothing task registration must
// compare a reopened tree's commitment with the registered POC and re-commit
// on a mismatch.
func (d *Decommitment) Update(ctx context.Context, delta map[string][]byte) (Commitment, error) {
	_, stage := obs.StartStage(ctx, "zkedb.update",
		trace.Int("keys", len(delta)),
		trace.Int("q", d.crs.Params.Q), trace.Int("h", d.crs.Params.H),
		trace.String("store", d.kv.Name()))
	com, err := d.update(ctx, delta)
	var hist *obs.Histogram
	if err == nil {
		hist = updateMetrics(d.kv.Name())
	}
	stage.End(hist, err)
	return com, err
}

func (d *Decommitment) update(ctx context.Context, delta map[string][]byte) (Commitment, error) {
	d.treeMu.Lock()
	defer d.treeMu.Unlock()
	if len(delta) == 0 {
		return Commitment{Root: d.root.qCom}, nil
	}
	items := make([]keyItem, 0, len(delta))
	for k, v := range delta {
		cp := make([]byte, len(v))
		copy(cp, v)
		items = append(items, keyItem{key: k, value: cp, digits: d.crs.digits(d.crs.digest(k))})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].key < items[j].key })
	for _, it := range items {
		if err := d.kv.Put(dbStoreKey(it.key), it.value); err != nil {
			return Commitment{}, fmt.Errorf("zkedb: storing db entry: %w", err)
		}
	}
	// The update walk is serial: for realistic k it touches k·H nodes, and
	// keeping it single-threaded keeps first-error behaviour trivially
	// deterministic. Fresh subtrees still go through builder.build, so they
	// reproduce exactly what a from-scratch build would.
	b := &builder{crs: d.crs, dec: d, seed: d.seed}
	newRoot, err := d.updateNode(ctx, b, 0, nil, d.root, items)
	if err != nil {
		return Commitment{}, err
	}
	if err := d.kv.Flush(); err != nil {
		return Commitment{}, fmt.Errorf("zkedb: flushing store: %w", err)
	}
	d.root = newRoot
	return Commitment{Root: newRoot.qCom}, nil
}

// updateNode recomputes the node at level/prefix for the touched items,
// reusing the old node's untouched slot messages and re-deriving its
// commitment randomness from the position-keyed stream. old is the current
// node at this position (never nil: the caller only recurses into occupied
// slots).
func (d *Decommitment) updateNode(ctx context.Context, b *builder, level int, prefix []int, old *node, items []keyItem) (*node, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("zkedb: update cancelled at level %d: %w", level, err)
	}
	c := d.crs
	if level == c.Params.H {
		if len(items) != 1 {
			return nil, fmt.Errorf("%w: %d keys at leaf %v", ErrDigestCollision, len(items), prefix)
		}
		if old.leafKey != items[0].key {
			return nil, fmt.Errorf("%w: leaf holds %q, updating %q", ErrDigestCollision, old.leafKey, items[0].key)
		}
		// Value overwrite: recommit the leaf. In seeded mode the position
		// stream re-derives the same randomness a fresh build would use.
		return b.build(level, prefix, items)
	}
	bySlot := make(map[int][]keyItem)
	for _, it := range items {
		s := it.digits[level]
		bySlot[s] = append(bySlot[s], it)
	}
	touched := make([]int, 0, len(bySlot))
	for s := range bySlot {
		touched = append(touched, s)
	}
	sort.Ints(touched)

	n := &node{level: level, slots: append([]int(nil), old.slots...)}
	messages := append([]*big.Int(nil), old.qDec.Messages...)
	for _, slot := range touched {
		childPrefix := append(append(make([]int, 0, level+1), prefix...), slot)
		slotItems := bySlot[slot]
		var child *node
		var err error
		if old.hasSlot(slot) {
			oldChild, cerr := d.childAt(childPrefix, nil)
			if cerr != nil {
				return nil, cerr
			}
			child, err = d.updateNode(ctx, b, level+1, childPrefix, oldChild, slotItems)
		} else {
			// Empty → occupied: drop the pinned soft entry (and any lazily
			// grown chain below it), then build the subtree from scratch.
			if err = d.purgeSoftsUnder(prefixKey(childPrefix)); err != nil {
				return nil, err
			}
			child, err = b.build(level+1, childPrefix, slotItems)
			if err == nil {
				i := sort.SearchInts(n.slots, slot)
				n.slots = append(n.slots, 0)
				copy(n.slots[i+1:], n.slots[i:])
				n.slots[i] = slot
			}
		}
		if err != nil {
			return nil, err
		}
		messages[slot] = slotHash(child.commitment())
	}
	qCom, qDec, err := c.Key.HComFrom(b.rnd(prefix), messages)
	if err != nil {
		return nil, fmt.Errorf("zkedb: recommitting node at level %d: %w", level, err)
	}
	n.qCom = qCom
	n.qDec = qDec
	if err := d.putNode(prefixKey(prefix), n); err != nil {
		return nil, err
	}
	return n, nil
}

// purgeSoftsUnder deletes every stored (and cached) soft entry at or below
// a digit-path key. Keys are one byte per digit, so the string-prefix scan
// is exactly the subtree scan.
func (d *Decommitment) purgeSoftsUnder(pk string) error {
	keys, err := d.kv.List(softStoreKey(pk))
	if err != nil {
		return fmt.Errorf("zkedb: listing soft entries under %x: %w", pk, err)
	}
	for _, k := range keys {
		if !strings.HasPrefix(k, nsSoft) {
			continue
		}
		if err := d.kv.Delete(k); err != nil {
			return fmt.Errorf("zkedb: deleting soft entry %q: %w", k, err)
		}
		d.mu.Lock()
		d.cacheDeleteLocked(k)
		d.mu.Unlock()
	}
	return nil
}
