// Package zkedb implements a zero-knowledge elementary database (ZK-EDB) in
// the tree paradigm of Micali–Rabin–Kilian and Chase et al., with q-ary
// fan-out and constant-size per-level openings as in Catalano–Fiore and
// Libert–Yung — the primitive DE-Sword (ICDCS 2017, §IV.A) builds its product
// ownership credentials on.
//
// An elementary database D is a set of key/value pairs. The committer
// produces a single constant-size commitment to D and can later prove, for
// any key x, either that D(x) = y (an ownership proof, in DE-Sword's terms)
// or that x ∉ [D] (a non-ownership proof), revealing nothing else about D —
// not even its cardinality.
//
// Construction. Keys are hashed to KeyBits-bit digests, which index the
// leaves of a q-ary tree of height H (q^H ≥ 2^KeyBits). A leaf holding key x
// carries a hard trapdoor mercurial commitment (package mercurial) to
// H(x, D(x)); each internal node carries a hard q-mercurial commitment
// (package qmercurial) to the vector of its children's hashes. Child slots
// whose subtree contains no keys hold soft mercurial commitments: they commit
// to nothing, and during a non-ownership proof the prover extends a chain of
// fresh soft commitments down to the queried leaf and teases it to a
// designated "absent" message. Soft chains are cached per tree position so
// repeated queries answer consistently.
//
// Soundness: the root is hard, hard commitments tease only to their committed
// message, the committed slot message fixes the child commitment by collision
// resistance, and soft commitments can never be hard-opened — so no
// polynomial-time committer can produce both an ownership and a
// non-ownership proof for the same key (DE-Sword Claim 1), nor two ownership
// proofs with different values (Claim 2).
//
// The four algorithms match the paper's ZK-EDB API: CRSGen, (crs) Commit
// [EDB-commit], (dec) Prove [EDB-proof], (crs) Verify [EDB-Verify]. A
// committed tree never changes: a new database is a new Commit. Beyond the
// paper, the tree lives in a pluggable node store (package zkedb/store) with
// lazy hydration, so a database is no longer bounded by RAM (DESIGN.md §13).
package zkedb

import (
	"container/list"
	"context"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"desword/internal/mercurial"
	"desword/internal/obs"
	"desword/internal/qmercurial"
	"desword/internal/rsavc"
	"desword/internal/trace"
	"desword/internal/zkedb/store"
)

// slotMessageBits is the size of the hash binding a child commitment into
// its parent's vector slot.
const slotMessageBits = 128

// Errors reported by this package.
var (
	ErrBadParams       = errors.New("zkedb: invalid parameters")
	ErrDigestCollision = errors.New("zkedb: two keys share a digest path")
	ErrBadProof        = errors.New("zkedb: proof rejected")
	ErrUnknownKey      = errors.New("zkedb: key not covered by this decommitment")
	ErrStoreInUse      = errors.New("zkedb: store already holds a committed tree")
)

// Params fixes the tree geometry. Q is the branching factor (a power of
// two), H the tree height, KeyBits the digest length; Q^H must cover
// 2^KeyBits. ModulusBits sizes the RSA layer of the q-mercurial commitments.
type Params struct {
	Q           int `json:"q"`
	H           int `json:"h"`
	KeyBits     int `json:"key_bits"`
	ModulusBits int `json:"modulus_bits"`
}

// DefaultParams returns the production geometry: a 16-ary tree of height 32
// covering 128-bit digests, the middle row of the paper's Table II.
func DefaultParams() Params {
	return Params{Q: 16, H: 32, KeyBits: 128, ModulusBits: rsavc.DefaultModulusBits}
}

// TestParams returns a small geometry (24-bit digests) for fast unit tests.
func TestParams() Params {
	return Params{Q: 8, H: 8, KeyBits: 24, ModulusBits: 512}
}

// Validate checks the geometry invariants.
func (p Params) Validate() error {
	if p.Q < 2 || p.Q&(p.Q-1) != 0 {
		return fmt.Errorf("%w: Q must be a power of two ≥ 2, got %d", ErrBadParams, p.Q)
	}
	if p.H < 1 {
		return fmt.Errorf("%w: H must be positive, got %d", ErrBadParams, p.H)
	}
	if p.KeyBits < 8 || p.KeyBits > 256 {
		return fmt.Errorf("%w: KeyBits must be in [8,256], got %d", ErrBadParams, p.KeyBits)
	}
	if p.H*p.digitBits() < p.KeyBits {
		return fmt.Errorf("%w: Q^H = 2^%d does not cover 2^%d keys",
			ErrBadParams, p.H*p.digitBits(), p.KeyBits)
	}
	if p.ModulusBits < 256 {
		return fmt.Errorf("%w: modulus too small: %d bits", ErrBadParams, p.ModulusBits)
	}
	return nil
}

// digitBits returns log2(Q).
func (p Params) digitBits() int {
	bits := 0
	for q := p.Q; q > 1; q >>= 1 {
		bits++
	}
	return bits
}

// CRS is the common reference string: tree geometry plus the q-mercurial
// commitment key. DE-Sword's trusted proxy runs CRSGen and publishes the
// result as the public parameter ps.
type CRS struct {
	Params Params                `json:"params"`
	Key    *qmercurial.PublicKey `json:"key"`

	// pm caches the proof timing histograms for this geometry (metrics.go).
	pm atomic.Pointer[proofMetrics]
}

// CRSGen generates a common reference string for the given geometry
// (the paper's CRS-Gen(λ) → σ).
func CRSGen(p Params) (*CRS, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	key, err := qmercurial.KGen(p.Q, slotMessageBits, p.ModulusBits)
	if err != nil {
		return nil, fmt.Errorf("zkedb: generating qTMC key: %w", err)
	}
	return &CRS{Params: p, Key: key}, nil
}

// Rehydrate restores cached key material after JSON decoding.
func (c *CRS) Rehydrate() error {
	if err := c.Params.Validate(); err != nil {
		return err
	}
	if c.Key == nil {
		return errors.New("zkedb: CRS missing commitment key")
	}
	return c.Key.Rehydrate()
}

// Commitment is the constant-size database commitment (the root node's
// q-mercurial commitment).
type Commitment struct {
	Root qmercurial.Commitment `json:"root"`
}

// Equal reports whether two commitments are identical.
func (c Commitment) Equal(o Commitment) bool { return c.Root.Equal(o.Root) }

// Bytes returns a canonical encoding of the commitment.
func (c Commitment) Bytes() []byte { return c.Root.Bytes() }

// digest hashes a key to its KeyBits-bit digest.
func (c *CRS) digest(key string) []byte {
	sum := sha256.Sum256([]byte("zkedb/key/" + key))
	nBytes := (c.Params.KeyBits + 7) / 8
	d := sum[:nBytes]
	// Mask trailing bits beyond KeyBits so the digest is exactly KeyBits wide.
	if rem := c.Params.KeyBits % 8; rem != 0 {
		masked := make([]byte, nBytes)
		copy(masked, d)
		masked[nBytes-1] &= byte(0xff << (8 - rem))
		return masked
	}
	out := make([]byte, nBytes)
	copy(out, d)
	return out
}

// digits expands a digest into H base-Q digits, MSB first. Bit positions at
// or beyond KeyBits read as zero.
func (c *CRS) digits(digest []byte) []int {
	b := c.Params.digitBits()
	out := make([]int, c.Params.H)
	for level := 0; level < c.Params.H; level++ {
		v := 0
		for k := 0; k < b; k++ {
			bitPos := level*b + k
			bit := 0
			if byteIdx := bitPos / 8; byteIdx < len(digest) {
				bit = int(digest[byteIdx]>>(7-bitPos%8)) & 1
			}
			v = v<<1 | bit
		}
		out[level] = v
	}
	return out
}

// slotHash binds a child commitment into its parent's vector slot: the
// truncated hash of the child's canonical encoding.
func slotHash(child mercurial.Commitment) *big.Int {
	sum := sha256.Sum256(child.Bytes())
	return new(big.Int).SetBytes(sum[:slotMessageBits/8])
}

// leafMessage is the mercurial message a present leaf hard-commits to.
func (c *CRS) leafMessage(key string, value []byte) *big.Int {
	return c.Key.TMC.Group().HashToScalar([]byte("zkedb/leaf"), []byte(key), value)
}

// absentMessage is the designated tease message for an absent leaf.
func (c *CRS) absentMessage(key string) *big.Int {
	return c.Key.TMC.Group().HashToScalar([]byte("zkedb/absent"), []byte(key))
}

// node is a hydrated tree node. Internal nodes (level < H) carry a hard
// q-mercurial commitment and the sorted list of occupied child slots; the
// leaf level (level == H) carries a hard mercurial commitment to the
// key/value. Children are NOT held by pointer: the prover resolves them by
// tree position through the node store, hydrating lazily during proofs.
// Nodes are immutable once built.
type node struct {
	level int
	leaf  bool
	slots []int // sorted occupied child slots (internal nodes only)

	qCom qmercurial.Commitment
	qDec qmercurial.HardDecommit

	leafCom   mercurial.Commitment
	leafDec   mercurial.HardDecommit
	leafKey   string
	leafValue []byte
}

// hasSlot reports whether the internal node has a committed child at slot.
func (n *node) hasSlot(slot int) bool {
	i := sort.SearchInts(n.slots, slot)
	return i < len(n.slots) && n.slots[i] == slot
}

// commitment returns the node's mercurial-layer commitment regardless of
// whether it is internal or a leaf.
func (n *node) commitment() mercurial.Commitment {
	if n.leaf {
		return n.leafCom
	}
	return n.qCom.MC
}

// softEntry is a soft commitment pinned to a tree position, created either at
// commit time (empty child slots of materialized nodes) or lazily during
// non-ownership proofs.
type softEntry struct {
	com mercurial.Commitment
	dec mercurial.SoftDecommit
}

// cacheSlot is one resident entry of the hydrated-state LRU: a node or a
// soft entry, keyed by namespaced store key.
type cacheSlot struct {
	key string
	n   *node
	s   *softEntry
}

// Decommitment is the prover's secret state (the paper's Dec / DE-Sword's
// DPOC): the committed tree and database, resident in a pluggable node
// store, plus a bounded cache of hydrated nodes and position-pinned soft
// commitments. Safe for concurrent Prove calls: the committed tree never
// changes, so only the cache and lazily created soft entries need a lock.
type Decommitment struct {
	crs  *CRS
	kv   store.KV
	seed []byte

	// mu guards the hydrated-state cache below (and soft-entry creation).
	mu    sync.Mutex
	bound int                      // max resident cache entries; 0 = unbounded
	ll    *list.List               // guarded by mu; front = most recently used
	ents  map[string]*list.Element // guarded by mu
	root  *node                    // pinned: never evicted, resolved without the store
	cm    *cacheMetrics
}

// Params exposes the tree geometry this decommitment was committed under,
// for callers annotating telemetry about proofs they hold.
func (d *Decommitment) Params() Params { return d.crs.Params }

// Store exposes the node store backing this decommitment.
func (d *Decommitment) Store() store.KV { return d.kv }

// Commitment returns the database commitment this decommitment opens — the
// root node's q-mercurial commitment.
func (d *Decommitment) Commitment() Commitment {
	return Commitment{Root: d.root.qCom}
}

// newDecommitment wires an empty prover state over kv.
func newDecommitment(crs *CRS, kv store.KV, seed []byte, bound int) *Decommitment {
	return &Decommitment{
		crs:   crs,
		kv:    kv,
		seed:  seed,
		bound: bound,
		ll:    list.New(),
		ents:  make(map[string]*list.Element),
		cm:    cacheMetricsFor(kv.Name()),
	}
}

type keyItem struct {
	key    string
	value  []byte
	digits []int
}

// CommitOptions configures Commit. The zero value selects the defaults:
// one worker per CPU, fresh crypto/rand commitment randomness, an in-memory
// node store, and an unbounded hydrated-node cache.
type CommitOptions struct {
	// Workers bounds the worker pool fanning the q-ary subtree build out
	// across slots. 0 selects runtime.GOMAXPROCS(0); 1 forces the serial
	// build.
	Workers int
	// Seed, when non-nil, derives every commitment's randomness from a
	// deterministic generator keyed by (Seed, tree position) instead of
	// crypto/rand, making the build reproducible bit for bit at any worker
	// count. Position keying means no draw depends on build order, which is
	// what lets the parallel build match the serial one exactly. A seeded
	// commitment forfeits hiding against anyone holding the seed; it exists
	// for tests and byte-identity pinning, not production. The seed is
	// retained in the decommitment state (it is as secret as the
	// decommitment itself).
	Seed []byte
	// Store, when non-nil, is the node store the committed tree is written
	// to — typically a *store.File so the tree survives restarts and can be
	// reopened with OpenDecommitment. nil selects a fresh in-memory store.
	// The store must be empty: committing into a store that already holds a
	// tree returns ErrStoreInUse.
	Store store.KV
	// CacheNodes bounds the resident hydrated-state cache (nodes + soft
	// entries). 0 keeps everything resident (the legacy behaviour, right
	// for the in-memory backend); with a file store a bound keeps peak
	// memory proportional to the working set instead of the tree.
	CacheNodes int
}

// workerCount resolves the effective pool size.
func (o CommitOptions) workerCount() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// Commit commits to the database db (the paper's EDB-commit(D, σ) →
// (Com, Dec)). The commitment hides everything about db, including its size.
// Subtrees of each node build in parallel on a bounded worker pool; per-slot
// openings are independent (Catalano–Fiore), so the fan-out changes nothing
// about the output. Pass CommitOptions{} for the defaults.
func (c *CRS) Commit(db map[string][]byte, opts CommitOptions) (Commitment, *Decommitment, error) {
	kv := opts.Store
	if kv == nil {
		kv = store.NewMem()
	}
	if _, ok, err := kv.Get(metaParamsKey); err != nil {
		return Commitment{}, nil, fmt.Errorf("zkedb: probing store: %w", err)
	} else if ok {
		return Commitment{}, nil, ErrStoreInUse
	}
	items := make([]keyItem, 0, len(db))
	for k, v := range db {
		items = append(items, keyItem{key: k, value: v, digits: c.digits(c.digest(k))})
	}
	// Deterministic build order keeps error behaviour reproducible.
	sort.Slice(items, func(i, j int) bool { return items[i].key < items[j].key })
	dec := newDecommitment(c, kv, opts.Seed, opts.CacheNodes)
	if err := dec.writeMeta(); err != nil {
		return Commitment{}, nil, err
	}
	for _, it := range items {
		cp := make([]byte, len(it.value))
		copy(cp, it.value)
		if err := kv.Put(dbStoreKey(it.key), cp); err != nil {
			return Commitment{}, nil, fmt.Errorf("zkedb: storing db entry: %w", err)
		}
	}
	b := &builder{crs: c, dec: dec, seed: opts.Seed}
	if spare := opts.workerCount() - 1; spare > 0 {
		b.sem = make(chan struct{}, spare)
	}
	root, err := b.build(0, nil, items)
	if err != nil {
		return Commitment{}, nil, err
	}
	dec.root = root
	if err := kv.Flush(); err != nil {
		return Commitment{}, nil, fmt.Errorf("zkedb: flushing store: %w", err)
	}
	return Commitment{Root: root.qCom}, dec, nil
}

// builder carries one Commit's build state: the worker-pool semaphore and
// the randomness mode.
type builder struct {
	crs  *CRS
	dec  *Decommitment
	seed []byte
	// sem holds the spare worker tokens (pool size minus the calling
	// goroutine). Child builds try-acquire a token and fall back to building
	// inline, so recursion can never deadlock on pool exhaustion.
	sem chan struct{}
}

// rnd returns the randomness source for the commitment pinned at the given
// tree position: crypto/rand by default, a position-keyed deterministic
// stream in seeded mode. Exactly one commitment is ever drawn per position
// (a slot holds either a child subtree or a pinned soft commitment), so
// streams are never shared.
func (b *builder) rnd(prefix []int) io.Reader {
	if b.seed == nil {
		return rand.Reader
	}
	return newCommitDRBG(b.seed, prefix)
}

// build materializes the subtree at the given level/prefix covering items,
// registering every built node (and pinned soft commitment) in the
// decommitment's store and cache.
func (b *builder) build(level int, prefix []int, items []keyItem) (*node, error) {
	c := b.crs
	if level == c.Params.H {
		if len(items) != 1 {
			return nil, fmt.Errorf("%w: %d keys at leaf %v", ErrDigestCollision, len(items), prefix)
		}
		it := items[0]
		com, leafDec := c.Key.TMC.HComFrom(b.rnd(prefix), c.leafMessage(it.key, it.value))
		n := &node{
			level:     level,
			leaf:      true,
			leafCom:   com,
			leafDec:   leafDec,
			leafKey:   it.key,
			leafValue: it.value,
		}
		if err := b.dec.putNode(prefixKey(prefix), n); err != nil {
			return nil, err
		}
		return n, nil
	}
	bySlot := make(map[int][]keyItem)
	for _, it := range items {
		d := it.digits[level]
		bySlot[d] = append(bySlot[d], it)
	}
	n := &node{level: level, slots: make([]int, 0, len(bySlot))}
	messages := make([]*big.Int, c.Params.Q)
	// Children land in a slice, not the cache map, so spawned workers write
	// disjoint indices; slot messages are filled after the join below.
	children := make([]*node, c.Params.Q)
	errs := make([]error, c.Params.Q)
	var wg sync.WaitGroup
	for slot := 0; slot < c.Params.Q; slot++ {
		childPrefix := append(append(make([]int, 0, level+1), prefix...), slot)
		slotItems, ok := bySlot[slot]
		if !ok {
			// Empty subtree: pin a soft commitment to this position now so the
			// parent's vector is fixed; non-ownership proofs extend from here.
			com, sdec := c.Key.TMC.SComFrom(b.rnd(childPrefix))
			if err := b.dec.putSoft(prefixKey(childPrefix), &softEntry{com: com, dec: sdec}); err != nil {
				errs[slot] = err
				continue
			}
			messages[slot] = slotHash(com)
			continue
		}
		n.slots = append(n.slots, slot)
		if b.sem != nil {
			select {
			case b.sem <- struct{}{}:
				wg.Add(1)
				go func(slot int, childPrefix []int, slotItems []keyItem) {
					defer wg.Done()
					defer func() { <-b.sem }()
					children[slot], errs[slot] = b.build(level+1, childPrefix, slotItems)
				}(slot, childPrefix, slotItems)
				continue
			default:
				// Pool saturated: build inline rather than queue, so the
				// calling goroutine always makes progress.
			}
		}
		children[slot], errs[slot] = b.build(level+1, childPrefix, slotItems)
	}
	wg.Wait()
	for _, err := range errs {
		// The lowest failing slot wins, matching the serial build's
		// first-error behaviour at any worker count.
		if err != nil {
			return nil, err
		}
	}
	for slot, child := range children {
		if child == nil {
			continue
		}
		messages[slot] = slotHash(child.commitment())
	}
	qCom, qDec, err := c.Key.HComFrom(b.rnd(prefix), messages)
	if err != nil {
		return nil, fmt.Errorf("zkedb: committing node at level %d: %w", level, err)
	}
	n.qCom = qCom
	n.qDec = qDec
	if err := b.dec.putNode(prefixKey(prefix), n); err != nil {
		return nil, err
	}
	return n, nil
}

// prefixKey encodes a digit path as a store/cache key.
func prefixKey(prefix []int) string {
	buf := make([]byte, len(prefix))
	for i, d := range prefix {
		buf[i] = byte(d)
	}
	return string(buf)
}

// ProofKind distinguishes ownership from non-ownership proofs.
type ProofKind int

// Proof kinds. Following the repository style, enum values start at 1 so the
// zero value is invalid.
const (
	ProofOwnership ProofKind = iota + 1
	ProofNonOwnership
)

// String implements fmt.Stringer.
func (k ProofKind) String() string {
	switch k {
	case ProofOwnership:
		return "ownership"
	case ProofNonOwnership:
		return "non-ownership"
	default:
		return fmt.Sprintf("ProofKind(%d)", int(k))
	}
}

// LevelOpening opens one internal level of the proof path and presents the
// next commitment on the path.
type LevelOpening struct {
	Hard  *qmercurial.HardOpening `json:"hard,omitempty"`
	Soft  *qmercurial.SoftOpening `json:"soft,omitempty"`
	Child mercurial.Commitment    `json:"child"`
}

// Proof is an ownership or non-ownership proof for one key (the paper's
// ZK-π_x). Ownership proofs hard-open every level and carry the value;
// non-ownership proofs tease every level and end in an "absent" leaf tease.
type Proof struct {
	Kind      ProofKind              `json:"kind"`
	Value     []byte                 `json:"value,omitempty"`
	Levels    []LevelOpening         `json:"levels"`
	LeafHard  *mercurial.HardOpening `json:"leaf_hard,omitempty"`
	LeafTease *mercurial.Tease       `json:"leaf_tease,omitempty"`
}

// proveStats accumulates per-proof store activity for span attributes.
type proveStats struct {
	loaded  int // nodes/softs hydrated from the store during this proof
	created int // soft entries lazily created during this proof
}

// Prove generates the proof for key (the paper's EDB-proof): an ownership
// proof when the key is in the committed database, a non-ownership proof
// otherwise. It is one "zkedb.prove" stage: when ctx carries an active trace
// span, generation is recorded as a child span tagged with the tree
// geometry, the store backend, the number of nodes hydrated from the store
// and the proof kind. ctx cancellation is honoured between tree levels, so
// an expired deadline aborts a proof mid-walk instead of paying for the
// remaining openings.
func (d *Decommitment) Prove(ctx context.Context, key string) (*Proof, error) {
	_, stage := obs.StartStage(ctx, "zkedb.prove",
		trace.Int("q", d.crs.Params.Q), trace.Int("h", d.crs.Params.H),
		trace.String("store", d.kv.Name()))
	st := &proveStats{}
	proof, err := d.prove(ctx, key, st)
	if err == nil && st.created > 0 {
		// A non-ownership proof extended a soft chain: commit it so the
		// commitments just shown to a verifier survive a restart (repeat
		// queries must answer with the same chain).
		err = d.kv.Flush()
	}
	span := stage.Span()
	span.SetAttr(trace.Int("loaded_nodes", st.loaded))
	var hist *obs.Histogram
	if err == nil {
		hist = d.crs.metrics().prove(proof.Kind)
		span.SetAttr(trace.String("kind", proof.Kind.String()))
	}
	stage.End(hist, err)
	return proof, err
}

func (d *Decommitment) prove(ctx context.Context, key string, st *proveStats) (*Proof, error) {
	// The committed tree is immutable; only the hydrated-state cache
	// mutates, under its own lock. Proofs for different keys therefore run
	// concurrently without serializing on d.mu.
	present, err := d.hasKey(key)
	if err != nil {
		return nil, err
	}
	if present {
		return d.proveOwnership(ctx, key, st)
	}
	return d.proveNonOwnership(ctx, key, st)
}

// hasKey reports whether key is in the committed database.
func (d *Decommitment) hasKey(key string) (bool, error) {
	_, ok, err := d.kv.Get(dbStoreKey(key))
	if err != nil {
		return false, fmt.Errorf("zkedb: reading db entry for %q: %w", key, err)
	}
	return ok, nil
}

// checkCtx reports a proof-aborting cancellation, wrapped so callers can
// errors.Is against context.Canceled / DeadlineExceeded.
func checkCtx(ctx context.Context, key string, level int) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("zkedb: proving %q cancelled at level %d: %w", key, level, err)
	}
	return nil
}

func (d *Decommitment) proveOwnership(ctx context.Context, key string, st *proveStats) (*Proof, error) {
	c := d.crs
	digits := c.digits(c.digest(key))
	proof := &Proof{Kind: ProofOwnership, Levels: make([]LevelOpening, 0, c.Params.H)}
	cur := d.root
	for level := 0; level < c.Params.H; level++ {
		if err := checkCtx(ctx, key, level); err != nil {
			return nil, err
		}
		slot := digits[level]
		if !cur.hasSlot(slot) {
			return nil, fmt.Errorf("%w: %q (tree path broken at level %d)", ErrUnknownKey, key, level)
		}
		child, err := d.childAt(digits[:level+1], st)
		if err != nil {
			return nil, err
		}
		op, err := c.Key.HOpen(cur.qDec, slot)
		if err != nil {
			return nil, fmt.Errorf("zkedb: opening level %d: %w", level, err)
		}
		proof.Levels = append(proof.Levels, LevelOpening{Hard: &op, Child: child.commitment()})
		cur = child
	}
	if cur.leafKey != key {
		return nil, fmt.Errorf("%w: leaf holds %q, wanted %q", ErrDigestCollision, cur.leafKey, key)
	}
	leafOpen := c.Key.TMC.HOpen(cur.leafDec)
	proof.LeafHard = &leafOpen
	proof.Value = cur.leafValue
	return proof, nil
}

func (d *Decommitment) proveNonOwnership(ctx context.Context, key string, st *proveStats) (*Proof, error) {
	c := d.crs
	digits := c.digits(c.digest(key))
	proof := &Proof{Kind: ProofNonOwnership, Levels: make([]LevelOpening, 0, c.Params.H)}

	// Hard segment: tease materialized hard nodes along the path.
	cur := d.root
	level := 0
	for ; level < c.Params.H; level++ {
		if err := checkCtx(ctx, key, level); err != nil {
			return nil, err
		}
		slot := digits[level]
		if !cur.hasSlot(slot) {
			break // transition to the soft segment
		}
		child, err := d.childAt(digits[:level+1], st)
		if err != nil {
			return nil, err
		}
		op, err := c.Key.SOpenHard(cur.qDec, slot)
		if err != nil {
			return nil, fmt.Errorf("zkedb: teasing level %d: %w", level, err)
		}
		proof.Levels = append(proof.Levels, LevelOpening{Soft: &op, Child: child.commitment()})
		cur = child
	}
	if level == c.Params.H {
		return nil, fmt.Errorf("zkedb: key %q is present; cannot prove non-ownership", key)
	}

	// The child slot at `level` is empty: its pinned soft commitment was
	// created at commit time. Tease the hard node toward it, then descend a
	// (cached) chain of soft commitments to the leaf.
	slot := digits[level]
	entry, err := d.softAt(digits[:level+1], st)
	if err != nil {
		return nil, err
	}
	op, err := c.Key.SOpenHard(cur.qDec, slot)
	if err != nil {
		return nil, fmt.Errorf("zkedb: teasing level %d: %w", level, err)
	}
	proof.Levels = append(proof.Levels, LevelOpening{Soft: &op, Child: entry.com})
	level++

	for ; level < c.Params.H; level++ {
		if err := checkCtx(ctx, key, level); err != nil {
			return nil, err
		}
		next, err := d.softAt(digits[:level+1], st)
		if err != nil {
			return nil, err
		}
		sop, err := c.Key.SOpenSoft(
			qmercurial.SoftDecommit{MCDec: entry.dec}, digits[level], slotHash(next.com))
		if err != nil {
			return nil, fmt.Errorf("zkedb: soft-opening level %d: %w", level, err)
		}
		proof.Levels = append(proof.Levels, LevelOpening{Soft: &sop, Child: next.com})
		entry = next
	}

	tease, err := c.Key.TMC.SOpenSoft(entry.dec, c.absentMessage(key))
	if err != nil {
		return nil, fmt.Errorf("zkedb: teasing absent leaf: %w", err)
	}
	proof.LeafTease = &tease
	return proof, nil
}

// VerifyCtx is Verify as one "zkedb.verify" stage, the instrumented entry
// to verification: it times a proof of a known kind into
// desword_proof_verify_seconds and, when ctx carries an active span, records
// a child span tagged with the tree geometry and proof kind.
func (c *CRS) VerifyCtx(ctx context.Context, com Commitment, key string, proof *Proof) (value []byte, present bool, err error) {
	_, stage := obs.StartStage(ctx, "zkedb.verify",
		trace.Int("q", c.Params.Q), trace.Int("h", c.Params.H))
	if span := stage.Span(); span != nil && proof != nil {
		span.SetAttr(trace.String("kind", proof.Kind.String()))
	}
	var hist *obs.Histogram
	if proof != nil && (proof.Kind == ProofOwnership || proof.Kind == ProofNonOwnership) {
		hist = c.metrics().verify(proof.Kind)
	}
	value, present, err = c.Verify(com, key, proof)
	stage.End(hist, err)
	return value, present, err
}

// Verify checks a proof for key against a commitment (the paper's
// EDB-Verify(σ, Com, x, π) → y / ⊥ / bad). On success it returns the proven
// value and present=true for ownership proofs, or (nil, false) for
// non-ownership proofs. Any inconsistency yields ErrBadProof. It records
// nothing; VerifyCtx is the instrumented entry.
func (c *CRS) Verify(com Commitment, key string, proof *Proof) (value []byte, present bool, err error) {
	if proof == nil {
		return nil, false, fmt.Errorf("%w: nil proof", ErrBadProof)
	}
	if proof.Kind != ProofOwnership && proof.Kind != ProofNonOwnership {
		return nil, false, fmt.Errorf("%w: unknown proof kind %d", ErrBadProof, proof.Kind)
	}
	if len(proof.Levels) != c.Params.H {
		return nil, false, fmt.Errorf("%w: %d levels, want %d", ErrBadProof, len(proof.Levels), c.Params.H)
	}
	digits := c.digits(c.digest(key))
	cur := com.Root
	for level, lo := range proof.Levels {
		want := slotHash(lo.Child)
		switch proof.Kind {
		case ProofOwnership:
			if lo.Hard == nil {
				return nil, false, fmt.Errorf("%w: level %d missing hard opening", ErrBadProof, level)
			}
			if lo.Hard.Slot != digits[level] {
				return nil, false, fmt.Errorf("%w: level %d opens slot %d, want %d",
					ErrBadProof, level, lo.Hard.Slot, digits[level])
			}
			if lo.Hard.Message == nil || lo.Hard.Message.Cmp(want) != 0 {
				return nil, false, fmt.Errorf("%w: level %d slot message does not bind child", ErrBadProof, level)
			}
			if !c.Key.VerHOpen(cur, *lo.Hard) {
				return nil, false, fmt.Errorf("%w: level %d hard opening invalid", ErrBadProof, level)
			}
		case ProofNonOwnership:
			if lo.Soft == nil {
				return nil, false, fmt.Errorf("%w: level %d missing soft opening", ErrBadProof, level)
			}
			if lo.Soft.Slot != digits[level] {
				return nil, false, fmt.Errorf("%w: level %d opens slot %d, want %d",
					ErrBadProof, level, lo.Soft.Slot, digits[level])
			}
			if lo.Soft.Message == nil || lo.Soft.Message.Cmp(want) != 0 {
				return nil, false, fmt.Errorf("%w: level %d slot message does not bind child", ErrBadProof, level)
			}
			if !c.Key.VerSOpen(cur, *lo.Soft) {
				return nil, false, fmt.Errorf("%w: level %d soft opening invalid", ErrBadProof, level)
			}
		}
		cur = qmercurial.Commitment{MC: lo.Child}
	}
	leafCom := cur.MC
	if proof.Kind == ProofOwnership {
		if proof.LeafHard == nil {
			return nil, false, fmt.Errorf("%w: missing leaf opening", ErrBadProof)
		}
		wantMsg := c.leafMessage(key, proof.Value)
		if proof.LeafHard.M == nil || proof.LeafHard.M.Cmp(wantMsg) != 0 {
			return nil, false, fmt.Errorf("%w: leaf message does not bind key/value", ErrBadProof)
		}
		if !c.Key.TMC.VerHOpen(leafCom, *proof.LeafHard) {
			return nil, false, fmt.Errorf("%w: leaf hard opening invalid", ErrBadProof)
		}
		return proof.Value, true, nil
	}
	if proof.LeafTease == nil {
		return nil, false, fmt.Errorf("%w: missing leaf tease", ErrBadProof)
	}
	wantMsg := c.absentMessage(key)
	if proof.LeafTease.M == nil || proof.LeafTease.M.Cmp(wantMsg) != 0 {
		return nil, false, fmt.Errorf("%w: leaf tease does not bind key", ErrBadProof)
	}
	if !c.Key.TMC.VerSOpen(leafCom, *proof.LeafTease) {
		return nil, false, fmt.Errorf("%w: leaf tease invalid", ErrBadProof)
	}
	return nil, false, nil
}
