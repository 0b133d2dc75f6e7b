// Package rsavc implements a vector commitment with constant-size position
// openings in the RSA setting, following the blueprint of Catalano and Fiore
// ("Vector Commitments and their Applications"). It replaces the
// pairing-based q-mercurial vector layer of Libert–Yung used by the DE-Sword
// paper, which cannot be built from the Go standard library; see DESIGN.md §3
// for why the substitution preserves the paper's cost shapes.
//
// Construction. The committer is given an RSA modulus N whose factorization
// was discarded by a trusted setup (DE-Sword's proxy), a base g ∈ QR_N, and q
// distinct public primes e_1..e_q, each larger than the message space. With
// P = ∏ e_j and bases g_j = g^{P/e_j}:
//
//	Commit(m_1..m_q; r) = g^{rP} · ∏_j g_j^{m_j} mod N
//	Witness for slot i:  Λ_i = g^{(rP + Σ_{j≠i} m_j·P/e_j)/e_i}
//	Verify:              Λ_i^{e_i} · g_i^{m_i} ≡ V (mod N)
//
// Two different openings of slot i yield an e_i-th root of g, contradicting
// the strong RSA assumption, so each position is computationally binding.
// Commit and Witness cost Θ(q) (the exponent grows linearly with q), while
// Verify is independent of q — exactly the asymmetry the paper measures in
// Fig. 4 and Fig. 5.
//
// The bases g and g_i are fixed by the key, so Params carries fixed-base
// exponentiation tables for them (fixedbase.go), derived on Setup and
// Rehydrate and never serialized; the outputs are exactly those of
// big.Int.Exp.
package rsavc

import (
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// DefaultModulusBits is the RSA modulus size used by production parameters.
// Benchmarks in the paper's regime use 1024-bit moduli to keep the sweep
// tractable; security-sensitive deployments should pass 2048.
const DefaultModulusBits = 1024

// hidingBits sizes the statistical hiding randomness r.
const hidingBits = 256

// Errors reported by this package.
var (
	ErrMessageOutOfRange  = errors.New("rsavc: message outside [0, 2^MessageBits)")
	ErrPositionOutOfRange = errors.New("rsavc: position outside [0, q)")
	ErrVectorLength       = errors.New("rsavc: vector length differs from q")
	ErrNegativeHiding     = errors.New("rsavc: hiding randomness is negative")
)

// Params is the public commitment key. It is immutable after Setup and safe
// for concurrent use.
type Params struct {
	N           *big.Int     // RSA modulus with unknown factorization
	G           *big.Int     // base in QR_N
	Q           int          // vector length
	MessageBits int          // messages lie in [0, 2^MessageBits)
	Primes      []*big.Int   // q distinct primes > 2^MessageBits
	prodPrimes  *big.Int     // P = ∏ primes
	prodDiv     []*big.Int   // P / e_i
	g           *fixedBase   // powers of g, for exponents below 2^(|P|+hidingBits+1)
	slots       []*fixedBase // powers of g_i = g^{P/e_i}, for messages
}

// Witness is the constant-size opening for one vector slot.
type Witness struct {
	Lambda *big.Int `json:"lambda"`
}

// Setup generates parameters for vectors of length q with messages of
// messageBits bits, over a fresh RSA modulus of modulusBits bits. The modulus
// factorization is generated via crypto/rsa and immediately discarded; in
// DE-Sword the trusted proxy plays this role when producing the public
// parameter ps.
func Setup(q, messageBits, modulusBits int) (*Params, error) {
	if q < 1 {
		return nil, fmt.Errorf("rsavc: q must be positive, got %d", q)
	}
	if messageBits < 8 {
		return nil, fmt.Errorf("rsavc: messageBits too small: %d", messageBits)
	}
	key, err := rsa.GenerateKey(rand.Reader, modulusBits)
	if err != nil {
		return nil, fmt.Errorf("rsavc: generating modulus: %w", err)
	}
	n := new(big.Int).Set(key.N)
	// Base g: a random quadratic residue, so g generates a large subgroup.
	s, err := rand.Int(rand.Reader, n)
	if err != nil {
		return nil, fmt.Errorf("rsavc: sampling base: %w", err)
	}
	g := new(big.Int).Mul(s, s)
	g.Mod(g, n)
	if g.Sign() == 0 {
		g.SetInt64(4)
	}
	params := &Params{N: n, G: g, Q: q, MessageBits: messageBits}
	params.Primes = derivePrimes(q, messageBits)
	params.finalize()
	return params, nil
}

// derivePrimes deterministically derives q distinct primes just above
// 2^(messageBits+1), spaced far enough apart that the next-prime searches
// cannot collide. Public deterministic primes are standard for RSA vector
// commitments; binding rests solely on the modulus.
func derivePrimes(q, messageBits int) []*big.Int {
	primes := make([]*big.Int, 0, q)
	base := new(big.Int).Lsh(big.NewInt(1), uint(messageBits+1))
	spacing := new(big.Int).Lsh(big.NewInt(1), 24)
	for i := 0; i < q; i++ {
		start := new(big.Int).Mul(spacing, big.NewInt(int64(i)))
		start.Add(start, base)
		primes = append(primes, nextPrime(start))
	}
	return primes
}

// nextPrime returns the smallest probable prime ≥ start.
func nextPrime(start *big.Int) *big.Int {
	candidate := new(big.Int).Set(start)
	if candidate.Bit(0) == 0 {
		candidate.Add(candidate, big.NewInt(1))
	}
	two := big.NewInt(2)
	for !candidate.ProbablyPrime(32) {
		candidate.Add(candidate, two)
	}
	return candidate
}

// finalize derives the cached products and the fixed-base tables from N, G
// and Primes. It is also invoked after deserializing parameters from the
// wire. The g table covers every exponent Commit, Open and Fabricate raise g
// to: Commit's r·P + Σ m_j·P/e_j stays below 2^(|P|+hidingBits+1) for
// r < 2^hidingBits, and each slot base g^{P/e_i} comes from it too.
func (p *Params) finalize() {
	p.prodPrimes = big.NewInt(1)
	for _, e := range p.Primes {
		p.prodPrimes.Mul(p.prodPrimes, e)
	}
	m := newMontgomery(p.N)
	p.g = newFixedBase(m, m.toMont(p.G), gWindowBits, p.prodPrimes.BitLen()+hidingBits+1)
	p.prodDiv = make([]*big.Int, p.Q)
	p.slots = make([]*fixedBase, p.Q)
	for i, e := range p.Primes {
		p.prodDiv[i] = new(big.Int).Quo(p.prodPrimes, e)
		p.slots[i] = newFixedBase(m, p.g.powMont(p.prodDiv[i]), slotWindowBits, p.MessageBits)
	}
}

// Rehydrate recomputes the cached fields after JSON decoding, validating the
// structural invariants first.
func (p *Params) Rehydrate() error {
	if p.N == nil || p.G == nil || p.Q < 1 || len(p.Primes) != p.Q {
		return errors.New("rsavc: malformed parameters")
	}
	// The tables hold residues of base G in Montgomery form, which needs an
	// odd modulus and G in [1, N); Setup always produces both.
	if p.N.Cmp(big.NewInt(1)) <= 0 || p.N.Bit(0) == 0 || p.G.Sign() <= 0 || p.G.Cmp(p.N) >= 0 {
		return errors.New("rsavc: modulus or base out of range")
	}
	for _, e := range p.Primes {
		if e == nil || e.Sign() <= 0 || e.BitLen() <= p.MessageBits {
			return errors.New("rsavc: prime not above message space")
		}
	}
	p.finalize()
	return nil
}

// MaxMessage returns 2^MessageBits, the exclusive message bound.
func (p *Params) MaxMessage() *big.Int {
	return new(big.Int).Lsh(big.NewInt(1), uint(p.MessageBits))
}

func (p *Params) checkMessage(m *big.Int) error {
	if m == nil || m.Sign() < 0 || m.BitLen() > p.MessageBits {
		return ErrMessageOutOfRange
	}
	return nil
}

// RandomHiding samples the hiding randomness r for a commitment.
func (p *Params) RandomHiding() (*big.Int, error) {
	return p.RandomHidingFrom(rand.Reader)
}

// RandomHidingFrom samples the hiding randomness r for a commitment from
// rnd. Production callers use RandomHiding (crypto/rand); deterministic
// readers support seeded, reproducible commitments.
func (p *Params) RandomHidingFrom(rnd io.Reader) (*big.Int, error) {
	bound := new(big.Int).Lsh(big.NewInt(1), hidingBits)
	r, err := rand.Int(rnd, bound)
	if err != nil {
		return nil, fmt.Errorf("rsavc: sampling hiding randomness: %w", err)
	}
	return r, nil
}

// Commit commits to the full vector ms (length Q) under hiding randomness r,
// returning V = g^{rP} · ∏ g_j^{m_j} mod N.
func (p *Params) Commit(ms []*big.Int, r *big.Int) (*big.Int, error) {
	if len(ms) != p.Q {
		return nil, ErrVectorLength
	}
	if r.Sign() < 0 {
		return nil, ErrNegativeHiding
	}
	// Single aggregated exponent E = r·P + Σ m_j·(P/e_j): one modular
	// exponentiation whose exponent grows linearly with q.
	exp := new(big.Int).Mul(r, p.prodPrimes)
	term := new(big.Int)
	for j, m := range ms {
		if err := p.checkMessage(m); err != nil {
			return nil, fmt.Errorf("slot %d: %w", j, err)
		}
		term.Mul(m, p.prodDiv[j])
		exp.Add(exp, term)
	}
	return p.g.exp(exp), nil
}

// Open computes the constant-size witness for slot i of the committed vector.
func (p *Params) Open(ms []*big.Int, r *big.Int, i int) (Witness, error) {
	if len(ms) != p.Q {
		return Witness{}, ErrVectorLength
	}
	if i < 0 || i >= p.Q {
		return Witness{}, ErrPositionOutOfRange
	}
	if r.Sign() < 0 {
		return Witness{}, ErrNegativeHiding
	}
	// Exponent (rP + Σ_{j≠i} m_j·P/e_j) / e_i. Every term of the sum is a
	// multiple of e_i, so one exact division of the sum replaces a quotient
	// per slot.
	exp := new(big.Int).Mul(r, p.prodPrimes)
	term := new(big.Int)
	for j, m := range ms {
		if j == i {
			continue
		}
		if err := p.checkMessage(m); err != nil {
			return Witness{}, fmt.Errorf("slot %d: %w", j, err)
		}
		term.Mul(m, p.prodDiv[j])
		exp.Add(exp, term)
	}
	exp.Quo(exp, p.Primes[i])
	return Witness{Lambda: p.g.exp(exp)}, nil
}

// Verify checks that w opens slot i of commitment v to message m.
func (p *Params) Verify(v *big.Int, i int, m *big.Int, w Witness) bool {
	if v == nil || w.Lambda == nil || i < 0 || i >= p.Q {
		return false
	}
	if p.checkMessage(m) != nil {
		return false
	}
	if w.Lambda.Sign() <= 0 || w.Lambda.Cmp(p.N) >= 0 {
		return false
	}
	return p.opening(i, m, w.Lambda).Cmp(new(big.Int).Mod(v, p.N)) == 0
}

// opening returns Λ^{e_i} · g_i^m mod N: the commitment an opening Λ of slot
// i to m reproduces.
func (p *Params) opening(i int, m, lambda *big.Int) *big.Int {
	return p.g.m.times(p.slots[i].powMont(m), expPeeled(lambda, p.Primes[i], p.N))
}

// Fabricate builds, in time independent of q, a fresh commitment V' that
// opens slot i to message m, without committing to any other slot. This is
// the equivocation path used when soft-opening a *soft* q-mercurial
// commitment: pick Λ' = g^s and set V' = Λ'^{e_i} · g_i^{m}.
func (p *Params) Fabricate(i int, m *big.Int) (*big.Int, Witness, error) {
	if i < 0 || i >= p.Q {
		return nil, Witness{}, ErrPositionOutOfRange
	}
	if err := p.checkMessage(m); err != nil {
		return nil, Witness{}, err
	}
	s, err := p.RandomHiding()
	if err != nil {
		return nil, Witness{}, err
	}
	lambda := p.g.exp(s)
	return p.opening(i, m, lambda), Witness{Lambda: lambda}, nil
}
