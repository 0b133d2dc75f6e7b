package reputation

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"desword/internal/supplychain"
)

// This file makes the public ledger tamber-evident. The paper's incentive
// rests on scores being "publicly accessed by customers" (§II.C): a customer
// who cannot audit the score history has to trust the proxy's database
// blindly. Every adjustment is therefore chained into a running hash, so any
// retroactive edit, deletion or reordering of the history invalidates every
// later digest.

// ErrAuditChain reports a broken audit chain.
var ErrAuditChain = errors.New("reputation: audit chain broken")

// AuditEntry is one chained ledger event: digest_i = H(digest_{i-1} ‖ seq ‖
// canonical(event)).
type AuditEntry struct {
	Seq    uint64   `json:"seq"`
	Event  Event    `json:"event"`
	Digest [32]byte `json:"digest"`
}

// chainDigest computes the entry digest from the previous digest.
func chainDigest(prev [32]byte, seq uint64, e Event) [32]byte {
	h := sha256.New()
	h.Write(prev[:])
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], seq)
	h.Write(buf[:])
	writeField := func(s string) {
		binary.BigEndian.PutUint64(buf[:], uint64(len(s)))
		h.Write(buf[:])
		h.Write([]byte(s))
	}
	writeField(string(e.Participant))
	writeField(string(e.Product))
	writeField(e.Reason)
	binary.BigEndian.PutUint64(buf[:], uint64(e.Quality))
	h.Write(buf[:])
	binary.BigEndian.PutUint64(buf[:], uint64(int64(e.Delta*1e9)))
	h.Write(buf[:])
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// AuditLog returns a copy of the chained history. It copies the records
// under the read lock and rebuilds the entries, digests included, outside
// it.
func (l *Ledger) AuditLog() []AuditEntry {
	l.mu.RLock()
	records := slices.Clone(l.records)
	ids, labels := l.ids.vals, l.labels.vals
	l.mu.RUnlock()
	out := make([]AuditEntry, len(records))
	var prev [32]byte
	for i, r := range records {
		lb := labels[r.label]
		e := Event{
			Participant: supplychain.ParticipantID(ids[r.participant]),
			Product:     supplychain.ProductID(ids[r.product]),
			Quality:     lb.quality,
			Delta:       r.delta,
			Reason:      lb.reason,
		}
		prev = chainDigest(prev, uint64(i), e)
		out[i] = AuditEntry{Seq: uint64(i), Event: e, Digest: prev}
	}
	return out
}

// Head returns the latest chain digest and the number of entries; customers
// pin it (e.g. from a newspaper ad or transparency service) and audit any
// published history against it.
func (l *Ledger) Head() ([32]byte, uint64) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.head, uint64(len(l.records))
}

// VerifyAuditChain re-derives every digest of a published history and checks
// it reaches the pinned head. It is a pure function: customers run it
// without trusting the proxy.
func VerifyAuditChain(entries []AuditEntry, head [32]byte, count uint64) error {
	if uint64(len(entries)) != count {
		return fmt.Errorf("%w: %d entries, head pins %d", ErrAuditChain, len(entries), count)
	}
	var prev [32]byte
	for i, entry := range entries {
		if entry.Seq != uint64(i) {
			return fmt.Errorf("%w: entry %d carries seq %d", ErrAuditChain, i, entry.Seq)
		}
		want := chainDigest(prev, entry.Seq, entry.Event)
		if entry.Digest != want {
			return fmt.Errorf("%w: digest mismatch at entry %d", ErrAuditChain, i)
		}
		prev = entry.Digest
	}
	if count == 0 {
		if head != ([32]byte{}) {
			return fmt.Errorf("%w: empty history with nonzero head", ErrAuditChain)
		}
		return nil
	}
	if prev != head {
		return fmt.Errorf("%w: final digest does not reach the pinned head", ErrAuditChain)
	}
	return nil
}

// ShardChain is one published audit history with its pinned head, the
// shape core.Proxy.AuditShards returns. It verifies with VerifyAuditChain.
type ShardChain struct {
	Shard   int          `json:"shard"`
	Entries []AuditEntry `json:"entries"`
	Head    [32]byte     `json:"head"`
	Count   uint64       `json:"count"`
}

// VerifyShardChains verifies every chain independently and returns the
// merged replayed score table.
func VerifyShardChains(chains []ShardChain) (map[supplychain.ParticipantID]float64, error) {
	out := make(map[supplychain.ParticipantID]float64)
	for _, c := range chains {
		if err := VerifyAuditChain(c.Entries, c.Head, c.Count); err != nil {
			return nil, fmt.Errorf("shard %d: %w", c.Shard, err)
		}
		for v, s := range ReplayScores(c.Entries) {
			out[v] += s
		}
	}
	return out, nil
}

// ReplayScores recomputes the score table implied by a verified history, so
// a customer can check the proxy's published scores against the audited
// events.
func ReplayScores(entries []AuditEntry) map[supplychain.ParticipantID]float64 {
	out := make(map[supplychain.ParticipantID]float64)
	for _, entry := range entries {
		out[entry.Event.Participant] += entry.Event.Delta
	}
	return out
}
