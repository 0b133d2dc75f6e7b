package rsavc

import (
	"crypto/sha256"
	"fmt"
	"math/big"
	"testing"
)

// benchQ is the paper geometry's branching factor (zkedb.DefaultParams).
const benchQ = 16

// benchFixture is a key at DefaultModulusBits and q=16 with a committed
// vector of 128-bit hash-derived messages: the width of zkedb's slot hashes,
// so g_i^m in Verify and Fabricate walks a full-width exponent.
type benchFixture struct {
	p  *Params
	ms []*big.Int
	r  *big.Int
	v  *big.Int
	w  Witness
}

func newBenchFixture(b *testing.B) *benchFixture {
	b.Helper()
	p, err := Setup(benchQ, 128, DefaultModulusBits)
	if err != nil {
		b.Fatal(err)
	}
	f := &benchFixture{p: p, ms: make([]*big.Int, benchQ)}
	for i := range f.ms {
		sum := sha256.Sum256([]byte(fmt.Sprintf("bench/slot/%d", i)))
		f.ms[i] = new(big.Int).SetBytes(sum[:16])
	}
	if f.r, err = p.RandomHiding(); err != nil {
		b.Fatal(err)
	}
	if f.v, err = p.Commit(f.ms, f.r); err != nil {
		b.Fatal(err)
	}
	if f.w, err = p.Open(f.ms, f.r, 0); err != nil {
		b.Fatal(err)
	}
	return f
}

var benchSink any

func BenchmarkCommit(b *testing.B) {
	f := newBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := f.p.Commit(f.ms, f.r)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = v
	}
}

func BenchmarkOpen(b *testing.B) {
	f := newBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := f.p.Open(f.ms, f.r, i%benchQ)
		if err != nil {
			b.Fatal(err)
		}
		benchSink = w
	}
}

func BenchmarkVerify(b *testing.B) {
	f := newBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !f.p.Verify(f.v, 0, f.ms[0], f.w) {
			b.Fatal("honest opening rejected")
		}
	}
}

func BenchmarkFabricate(b *testing.B) {
	f := newBenchFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _, err := f.p.Fabricate(i%benchQ, f.ms[i%benchQ])
		if err != nil {
			b.Fatal(err)
		}
		benchSink = v
	}
}
