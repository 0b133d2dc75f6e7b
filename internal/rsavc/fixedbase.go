package rsavc

import (
	"math/big"
	"math/bits"
)

// Window widths of the fixed-base tables (DESIGN.md §3). Exponents of g run
// to |P| + hidingBits bits and are raised in every Commit, Open and
// Fabricate, so g gets the wider window; exponents of a slot base g_i are
// messages, and there are q of those tables. Together they keep one key's
// tables under 3 MiB at the paper geometry (q=16, 1024-bit N).
const (
	gWindowBits    = 5
	slotWindowBits = 4
)

// maxPeelBits bounds the exponent bits expPeeled moves off a word boundary.
// Peeling k bits costs k modular squarings; leaving them costs a walk over
// the rest of their word, W−k squarings inside big.Int.Exp. A slot prime
// for 128-bit messages has 2 such bits.
const maxPeelBits = 8

// montgomery is arithmetic modulo an odd N in Montgomery form: x < N is held
// as x·R mod N in exactly len(n) little-endian words, R = 2^(W·len(n)), so a
// modular product is one multiply-and-reduce pass with no division.
type montgomery struct {
	mod   *big.Int   // N
	n     []big.Word // N's words
	n0inv uint       // −N⁻¹ mod 2^W
	rr    []big.Word // R² mod N: mul(x, rr) maps x into Montgomery form
	one   []big.Word // R mod N, the Montgomery form of 1
}

func newMontgomery(n *big.Int) *montgomery {
	m := &montgomery{mod: new(big.Int).Set(n), n: append([]big.Word(nil), n.Bits()...)}
	// Newton's iteration for N⁻¹ mod 2^W doubles the correct low bits each
	// step, from the one bit an odd N gives.
	inv := uint(1)
	for i := 0; i < 6; i++ {
		inv *= 2 - uint(m.n[0])*inv
	}
	m.n0inv = -inv
	r := new(big.Int).Lsh(big.NewInt(1), uint(bits.UintSize*len(m.n)))
	m.one = m.words(new(big.Int).Mod(r, n))
	m.rr = m.words(r.Mod(r.Mul(r, r), n))
	return m
}

// words returns x, which must lie in [0, N), as exactly len(n) words.
func (m *montgomery) words(x *big.Int) []big.Word {
	z := make([]big.Word, len(m.n))
	copy(z, x.Bits())
	return z
}

// toMont returns x ∈ [0, N) in Montgomery form.
func (m *montgomery) toMont(x *big.Int) []big.Word {
	z := m.words(x)
	m.mul(z, z, m.rr, make([]big.Word, len(m.n)+2))
	return z
}

// mul sets z = x·y·R⁻¹ mod N for x, y < N (coarsely integrated operand
// scanning). z may alias x or y; t is scratch of len(n)+2 words.
func (m *montgomery) mul(z, x, y, t []big.Word) {
	n := m.n
	s := len(n)
	// Reslicing to exact lengths lets the compiler drop the bounds checks.
	x, y, z, t = x[:s], y[:s], z[:s], t[:s+2]
	clear(t)
	for _, xw := range x {
		// t += x[i]·y
		xi := uint(xw)
		var c uint
		low := t[:s]
		for j, yw := range y {
			hi, lo := bits.Mul(xi, uint(yw))
			var cc uint
			lo, cc = bits.Add(lo, uint(low[j]), 0)
			hi += cc
			lo, cc = bits.Add(lo, c, 0)
			hi += cc
			low[j], c = big.Word(lo), hi
		}
		ts, cc := bits.Add(uint(t[s]), c, 0)
		t[s], t[s+1] = big.Word(ts), big.Word(cc)

		// t = (t + u·N) / 2^W, where u makes the low word vanish.
		u := uint(t[0]) * m.n0inv
		hi, lo := bits.Mul(u, uint(n[0]))
		_, cc = bits.Add(lo, uint(t[0]), 0)
		c = hi + cc
		for j := 1; j < s; j++ {
			hi, lo := bits.Mul(u, uint(n[j]))
			lo, cc = bits.Add(lo, uint(t[j]), 0)
			hi += cc
			lo, cc = bits.Add(lo, c, 0)
			hi += cc
			t[j-1], c = big.Word(lo), hi
		}
		ts, cc = bits.Add(uint(t[s]), c, 0)
		t[s-1], t[s] = big.Word(ts), t[s+1]+big.Word(cc)
	}
	// t < 2N: subtract N once unless that borrows.
	var b uint
	for j, nw := range n {
		var d uint
		d, b = bits.Sub(uint(t[j]), uint(nw), b)
		z[j] = big.Word(d)
	}
	if _, b = bits.Sub(uint(t[s]), 0, b); b != 0 {
		copy(z, t[:s])
	}
}

// times returns a·b mod N as a big.Int, for a in Montgomery form and b in
// [0, N) in plain form: the product's R⁻¹ cancels a's R, so one mul both
// multiplies and leaves Montgomery form.
func (m *montgomery) times(a []big.Word, b *big.Int) *big.Int {
	z := m.words(b)
	m.mul(z, a, z, make([]big.Word, len(m.n)+2))
	return new(big.Int).SetBits(z)
}

// fixedBase holds powers of one fixed base b mod N: entry (k, d) is
// b^(d·2^(w·k)) in Montgomery form, for windows k < windows and digits
// 1 ≤ d < 2^w. b^x for x < 2^(w·windows) is then the product of one entry
// per nonzero w-bit digit of x: one multiply-and-reduce per window, no
// squarings. The table is derived from the key, never serialized.
type fixedBase struct {
	m       *montgomery
	w       uint
	windows int
	entries []big.Word // windows·(2^w−1) entries of len(m.n) words, window-major
	top     *big.Int   // b^(2^(w·windows)) mod N, raised for exponent bits past the table
}

// newFixedBase builds the table of base (Montgomery form) for exponents of
// up to bound bits.
func newFixedBase(m *montgomery, base []big.Word, w uint, bound int) *fixedBase {
	s := len(m.n)
	per := 1<<w - 1
	windows := max(0, (bound+int(w)-1)/int(w))
	t := &fixedBase{m: m, w: w, windows: windows, entries: make([]big.Word, windows*per*s)}
	scratch := make([]big.Word, s+2)
	cur := base // b^(2^(w·k))
	for k := 0; k < windows; k++ {
		row := t.entries[k*per*s : (k+1)*per*s]
		copy(row, cur)
		for d := 1; d < per; d++ {
			m.mul(row[d*s:(d+1)*s], row[(d-1)*s:d*s], cur, scratch)
		}
		next := make([]big.Word, s)
		m.mul(next, row[(per-1)*s:], cur, scratch)
		cur = next
	}
	t.top = m.times(cur, big.NewInt(1))
	return t
}

// powMont returns b^x in Montgomery form for x ≥ 0.
func (t *fixedBase) powMont(x *big.Int) []big.Word {
	m := t.m
	s := len(m.n)
	z := append([]big.Word(nil), m.one...)
	if covered := t.w * uint(t.windows); x.BitLen() > int(covered) {
		z = m.toMont(new(big.Int).Exp(t.top, new(big.Int).Rsh(x, covered), m.mod))
	}
	scratch := make([]big.Word, s+2)
	xw := x.Bits()
	per := 1<<t.w - 1
	for k := 0; k < t.windows; k++ {
		if d := digit(xw, uint(k)*t.w, t.w); d != 0 {
			m.mul(z, z, t.entries[(k*per+int(d)-1)*s:][:s], scratch)
		}
	}
	return z
}

// exp returns b^x mod N for x ≥ 0.
func (t *fixedBase) exp(x *big.Int) *big.Int {
	return t.m.times(t.powMont(x), big.NewInt(1))
}

// digit returns the w-bit digit of x starting at bit pos.
func digit(x []big.Word, pos, w uint) uint {
	i, off := int(pos/bits.UintSize), pos%bits.UintSize
	if i >= len(x) {
		return 0
	}
	d := uint(x[i]) >> off
	if off+w > bits.UintSize && i+1 < len(x) {
		d |= uint(x[i+1]) << (bits.UintSize - off)
	}
	return d & (1<<w - 1)
}

// expPeeled returns x^e mod n. big.Int.Exp walks a multi-word exponent in
// whole words, so a slot prime's bits above its last full word (two for the
// 130-bit primes of 128-bit messages) would cost a walk over all of that
// word. Peeling them off the bottom, x^e = (x^(e>>k))^(2^k) · x^(e mod 2^k),
// leaves an exponent of whole words for Exp. It must keep two of them: Exp
// takes its Montgomery path only for multi-word exponents.
func expPeeled(x, e, n *big.Int) *big.Int {
	k := uint(e.BitLen() % bits.UintSize)
	if k == 0 || k > maxPeelBits || e.BitLen()-int(k) < 2*bits.UintSize {
		return new(big.Int).Exp(x, e, n)
	}
	z := new(big.Int).Exp(x, new(big.Int).Rsh(e, k), n)
	for j := uint(0); j < k; j++ {
		z.Mod(z.Mul(z, z), n)
	}
	low := new(big.Int).SetUint64(uint64(e.Bits()[0]) & (1<<k - 1))
	return z.Mod(z.Mul(z, new(big.Int).Exp(x, low, n)), n)
}
