// Package qmercurial implements a trapdoor q-mercurial commitment (qTMC): a
// mercurial commitment to an ordered vector of q messages that can be opened
// (hard or soft) at a single position with a constant-size opening.
//
// The DE-Sword paper instantiates this with the pairing-based scheme of
// Libert and Yung (TCC 2010). The Go standard library has no pairings, so
// this package composes two stdlib-friendly layers with the same interface
// and cost profile (DESIGN.md §3):
//
//   - an RSA vector commitment V binding each slot with constant-size
//     witnesses (package rsavc), and
//   - a Pedersen-style trapdoor mercurial commitment to H(V) (package
//     mercurial) providing the hard/soft semantics.
//
// A hard q-commitment publishes only the mercurial commitment to H(V); V
// itself travels inside openings. A soft q-commitment is a bare soft
// mercurial commitment: when soft-opened at slot i to a message m, the
// committer fabricates a fresh V′ that opens slot i to m (rsavc.Fabricate)
// and teases the mercurial layer to H(V′). Soft q-commitments can never be
// hard-opened, and hard q-commitments can only be opened — hard or soft — to
// the slot values they committed, which is exactly the binding DE-Sword's
// Claims 1 and 2 rest on.
//
// The seven algorithms benchmarked in the paper's Fig. 4 map to: KGen, HCom,
// SCom, HOpen, SOpenHard/SOpenSoft, VerHOpen, VerSOpen.
package qmercurial

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync/atomic"

	"desword/internal/mercurial"
	"desword/internal/rsavc"
)

// Errors reported by this package.
var (
	ErrSlotOutOfRange = errors.New("qmercurial: slot index outside [0, q)")
	ErrVectorLength   = errors.New("qmercurial: vector length differs from q")
)

// PublicKey is the qTMC commitment key.
type PublicKey struct {
	VC  *rsavc.Params        `json:"vc"`
	TMC *mercurial.PublicKey `json:"-"`
}

// Commitment is a (hard or soft) q-mercurial commitment: constant size,
// flavour-hiding.
type Commitment struct {
	MC mercurial.Commitment `json:"mc"`
}

// HardDecommit is the committer's secret state for a hard q-commitment.
type HardDecommit struct {
	Messages []*big.Int
	Hiding   *big.Int
	V        *big.Int
	MCDec    mercurial.HardDecommit

	// witnesses is the witness memo Memoized attaches: slot i's RSA witness
	// once an opening of slot i has computed it. Copies of the decommitment
	// share it. Without one, every opening computes its witness afresh.
	witnesses []atomic.Pointer[big.Int]
}

// Memoized returns dec with an empty witness memo attached. The first HOpen
// or SOpenHard of a slot through the result, or through any copy of it,
// computes the slot's RSA witness and keeps it; every later opening of the
// slot reuses it. The witness is a deterministic function of the
// decommitment, so a memoized opening is exactly the one a recomputation
// would return; its Witness.Lambda is shared between openings, as V and the
// slot message already are, and must not be modified. The decommitment must
// not change once memoized. Concurrent openings are safe: two racing first
// openings of a slot compute the same witness, and either store wins.
func (dec HardDecommit) Memoized() HardDecommit {
	dec.witnesses = make([]atomic.Pointer[big.Int], len(dec.Messages))
	return dec
}

// SoftDecommit is the committer's secret state for a soft q-commitment.
type SoftDecommit struct {
	MCDec mercurial.SoftDecommit
}

// HardOpening opens one slot of a hard q-commitment with full (hard)
// certainty.
type HardOpening struct {
	Slot    int                   `json:"slot"`
	Message *big.Int              `json:"message"`
	V       *big.Int              `json:"v"`
	Witness rsavc.Witness         `json:"witness"`
	MCOpen  mercurial.HardOpening `json:"mc_open"`
}

// SoftOpening opens one slot of a (hard or soft) q-commitment with tease
// semantics.
type SoftOpening struct {
	Slot    int             `json:"slot"`
	Message *big.Int        `json:"message"`
	V       *big.Int        `json:"v"`
	Witness rsavc.Witness   `json:"witness"`
	MCTease mercurial.Tease `json:"mc_tease"`
}

// KGen generates a qTMC key for vectors of length q over messageBits-bit
// messages, with an RSA modulus of modulusBits bits. It corresponds to the
// paper's qKGen and costs Θ(q).
func KGen(q, messageBits, modulusBits int) (*PublicKey, error) {
	vc, err := rsavc.Setup(q, messageBits, modulusBits)
	if err != nil {
		return nil, fmt.Errorf("qmercurial: %w", err)
	}
	return &PublicKey{VC: vc, TMC: mercurial.KGen()}, nil
}

// Rehydrate restores the non-serialized mercurial key after JSON decoding.
func (pk *PublicKey) Rehydrate() error {
	if pk.VC == nil {
		return errors.New("qmercurial: missing vector commitment parameters")
	}
	if err := pk.VC.Rehydrate(); err != nil {
		return err
	}
	pk.TMC = mercurial.KGen()
	return nil
}

// Q returns the vector length.
func (pk *PublicKey) Q() int { return pk.VC.Q }

// hashV maps the RSA commitment into the mercurial message space.
func (pk *PublicKey) hashV(v *big.Int) *big.Int {
	return pk.TMC.Group().HashToScalar([]byte("qmercurial/v"), v.Bytes())
}

// HCom hard-commits to the message vector ms.
func (pk *PublicKey) HCom(ms []*big.Int) (Commitment, HardDecommit, error) {
	return pk.HComFrom(rand.Reader, ms)
}

// HComFrom is HCom with all commitment randomness (the RSA hiding exponent
// and the mercurial layer's scalars) drawn from rnd, enabling seeded
// reproducible tree builds.
func (pk *PublicKey) HComFrom(rnd io.Reader, ms []*big.Int) (Commitment, HardDecommit, error) {
	if len(ms) != pk.VC.Q {
		return Commitment{}, HardDecommit{}, ErrVectorLength
	}
	r, err := pk.VC.RandomHidingFrom(rnd)
	if err != nil {
		return Commitment{}, HardDecommit{}, err
	}
	v, err := pk.VC.Commit(ms, r)
	if err != nil {
		return Commitment{}, HardDecommit{}, err
	}
	mc, mcDec := pk.TMC.HComFrom(rnd, pk.hashV(v))
	msCopy := make([]*big.Int, len(ms))
	copy(msCopy, ms)
	return Commitment{MC: mc}, HardDecommit{Messages: msCopy, Hiding: r, V: v, MCDec: mcDec}, nil
}

// SCom produces a soft q-commitment, committing to no vector at all.
func (pk *PublicKey) SCom() (Commitment, SoftDecommit) {
	return pk.SComFrom(rand.Reader)
}

// SComFrom is SCom with the commitment randomness drawn from rnd.
func (pk *PublicKey) SComFrom(rnd io.Reader) (Commitment, SoftDecommit) {
	mc, mcDec := pk.TMC.SComFrom(rnd)
	return Commitment{MC: mc}, SoftDecommit{MCDec: mcDec}
}

// witness returns the RSA witness opening slot i of dec, from dec's witness
// memo when it holds one. i must lie in [0, q).
func (pk *PublicKey) witness(dec HardDecommit, i int) (rsavc.Witness, error) {
	if i < len(dec.witnesses) {
		if lambda := dec.witnesses[i].Load(); lambda != nil {
			return rsavc.Witness{Lambda: lambda}, nil
		}
	}
	w, err := pk.VC.Open(dec.Messages, dec.Hiding, i)
	if err == nil && i < len(dec.witnesses) {
		dec.witnesses[i].Store(w.Lambda)
	}
	return w, err
}

// HOpen hard-opens slot i of a hard q-commitment.
func (pk *PublicKey) HOpen(dec HardDecommit, i int) (HardOpening, error) {
	if i < 0 || i >= pk.VC.Q {
		return HardOpening{}, ErrSlotOutOfRange
	}
	w, err := pk.witness(dec, i)
	if err != nil {
		return HardOpening{}, err
	}
	return HardOpening{
		Slot:    i,
		Message: dec.Messages[i],
		V:       dec.V,
		Witness: w,
		MCOpen:  pk.TMC.HOpen(dec.MCDec),
	}, nil
}

// SOpenHard soft-opens (teases) slot i of a hard q-commitment. Only the
// committed slot value can verify.
func (pk *PublicKey) SOpenHard(dec HardDecommit, i int) (SoftOpening, error) {
	if i < 0 || i >= pk.VC.Q {
		return SoftOpening{}, ErrSlotOutOfRange
	}
	w, err := pk.witness(dec, i)
	if err != nil {
		return SoftOpening{}, err
	}
	return SoftOpening{
		Slot:    i,
		Message: dec.Messages[i],
		V:       dec.V,
		Witness: w,
		MCTease: pk.TMC.SOpenHard(dec.MCDec),
	}, nil
}

// SOpenSoft soft-opens slot i of a *soft* q-commitment to an arbitrary
// message m, fabricating a vector commitment on the fly. Its cost is
// independent of q, matching the flat curves of the paper's Fig. 4(b).
func (pk *PublicKey) SOpenSoft(dec SoftDecommit, i int, m *big.Int) (SoftOpening, error) {
	if i < 0 || i >= pk.VC.Q {
		return SoftOpening{}, ErrSlotOutOfRange
	}
	v, w, err := pk.VC.Fabricate(i, m)
	if err != nil {
		return SoftOpening{}, err
	}
	tease, err := pk.TMC.SOpenSoft(dec.MCDec, pk.hashV(v))
	if err != nil {
		return SoftOpening{}, err
	}
	return SoftOpening{Slot: i, Message: m, V: v, Witness: w, MCTease: tease}, nil
}

// VerHOpen verifies a hard opening of slot i against commitment c.
func (pk *PublicKey) VerHOpen(c Commitment, op HardOpening) bool {
	if op.V == nil || op.Message == nil {
		return false
	}
	if op.MCOpen.M == nil || op.MCOpen.M.Cmp(pk.hashV(op.V)) != 0 {
		return false
	}
	if !pk.TMC.VerHOpen(c.MC, op.MCOpen) {
		return false
	}
	return pk.VC.Verify(op.V, op.Slot, op.Message, op.Witness)
}

// VerSOpen verifies a soft opening of slot i against commitment c.
func (pk *PublicKey) VerSOpen(c Commitment, op SoftOpening) bool {
	if op.V == nil || op.Message == nil {
		return false
	}
	if op.MCTease.M == nil || op.MCTease.M.Cmp(pk.hashV(op.V)) != 0 {
		return false
	}
	if !pk.TMC.VerSOpen(c.MC, op.MCTease) {
		return false
	}
	return pk.VC.Verify(op.V, op.Slot, op.Message, op.Witness)
}

// Equal reports whether two commitments are identical.
func (c Commitment) Equal(o Commitment) bool { return c.MC.Equal(o.MC) }

// Bytes returns the canonical encoding used when hashing this commitment
// into a parent tree node.
func (c Commitment) Bytes() []byte { return c.MC.Bytes() }
