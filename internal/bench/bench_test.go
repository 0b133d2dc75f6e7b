package bench

import (
	"strconv"
	"strings"
	"testing"

	"desword/internal/obs"
	"desword/internal/sim"
	"desword/internal/zkedb"
)

// The shape tests below re-run the experiments at reduced cost (small RSA
// modulus, few reps) and assert the qualitative findings the paper reports —
// the directions and orderings EXPERIMENTS.md records.

const shapeModulus = 512

func TestTableRender(t *testing.T) {
	tb := &Table{Title: "demo", Note: "n", Headers: []string{"a", "bee"}}
	tb.AddRow("1", "2")
	tb.AddRow("333", "4")
	var sb strings.Builder
	if err := tb.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"demo", "a", "bee", "333"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestMeasureAndFormat(t *testing.T) {
	d := Measure(3, func() {})
	if d < 0 {
		t.Fatal("duration must be non-negative")
	}
	if Measure(0, func() {}) < 0 {
		t.Fatal("reps < 1 must be clamped")
	}
	if !strings.HasSuffix(Ms(d), "ms") {
		t.Fatal("Ms must format milliseconds")
	}
	if KB(2048) != "2.00KB" {
		t.Fatalf("KB(2048) = %s", KB(2048))
	}
}

func TestPaperSweepsMatchPaper(t *testing.T) {
	rows := PaperQH()
	if len(rows) != 5 || rows[0] != (QH{8, 43}) || rows[4] != (QH{128, 19}) {
		t.Fatalf("PaperQH() = %v", rows)
	}
	for _, qh := range rows {
		// q^h must cover the 128-bit id space.
		bits := 0
		for q := qh.Q; q > 1; q >>= 1 {
			bits++
		}
		if bits*qh.H < 128 {
			t.Fatalf("(%d,%d) does not cover 2^128", qh.Q, qh.H)
		}
	}
	if len(PaperQs()) != 5 {
		t.Fatalf("PaperQs() = %v", PaperQs())
	}
}

func TestRunTMCMicro(t *testing.T) {
	tb := RunTMCMicro(3)
	if len(tb.Rows) != 7 {
		t.Fatalf("TMC micro must report all seven algorithms, got %d", len(tb.Rows))
	}
}

func parseMs(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "ms"), 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", cell, err)
	}
	return v
}

func parseKB(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "KB"), 64)
	if err != nil {
		t.Fatalf("parsing %q: %v", cell, err)
	}
	return v
}

func TestFig4aHardOpsGrowWithQ(t *testing.T) {
	if testing.Short() {
		t.Skip("timing shape test skipped in short mode")
	}
	tb, err := RunFig4a([]int{8, 128}, 128, shapeModulus, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// qHCom and qHOpen at q=128 must clearly exceed q=8 (theory: 16×; we
	// assert a generous 2× to stay robust on loaded machines).
	for col, name := range map[int]string{2: "qHCom", 3: "qHOpen"} {
		small := parseMs(t, tb.Rows[0][col])
		large := parseMs(t, tb.Rows[1][col])
		if large < 2*small {
			t.Errorf("%s must grow with q: q=8 %vms vs q=128 %vms", name, small, large)
		}
	}
}

func TestFig4bSoftOpsFlatInQ(t *testing.T) {
	if testing.Short() {
		t.Skip("timing shape test skipped in short mode")
	}
	tb, err := RunFig4b([]int{8, 128}, 128, shapeModulus, 20)
	if err != nil {
		t.Fatal(err)
	}
	// Soft commitment and soft opening must not scale with q: allow 5×
	// noise but reject the 16× a linear dependence would show.
	for col, name := range map[int]string{1: "qSCom", 2: "qSOpen(soft)"} {
		small := parseMs(t, tb.Rows[0][col])
		large := parseMs(t, tb.Rows[1][col])
		if small == 0 {
			continue // below timer resolution — certainly not growing
		}
		if large > 8*small {
			t.Errorf("%s must stay flat in q: q=8 %vms vs q=128 %vms", name, small, large)
		}
	}
}

func TestTable2Shape(t *testing.T) {
	rows := []QH{{8, 43}, {32, 26}, {128, 19}}
	tb, err := RunTable2(rows, shapeModulus, 2)
	if err != nil {
		t.Fatal(err)
	}
	prevOwn := -1.0
	for i, row := range tb.Rows {
		own := parseKB(t, row[2])
		nOwn := parseKB(t, row[3])
		// Paper shape 1: ownership proofs exceed non-ownership proofs.
		if own <= nOwn {
			t.Errorf("row %v: own (%v) must exceed n-own (%v)", row[:2], own, nOwn)
		}
		// Paper shape 2: proof size falls as h falls (larger q).
		if i > 0 && own >= prevOwn {
			t.Errorf("own proof size must fall with h: %v then %v", prevOwn, own)
		}
		prevOwn = own
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing shape test skipped in short mode")
	}
	rows := []QH{{8, 43}, {128, 19}}
	tb, err := RunFig5(rows, shapeModulus, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Paper shape: generation is far more expensive than verification. In
	// this RSA instantiation the gap is driven by q (witness exponents grow
	// with q, verification does not), so it is asserted at q=128; at q=8 the
	// elliptic-curve verification cost masks it (recorded in EXPERIMENTS.md).
	last := tb.Rows[len(tb.Rows)-1]
	gen128 := parseMs(t, last[2])
	verify128 := parseMs(t, last[3])
	if gen128 <= 2*verify128 {
		t.Errorf("(q=128,h=19): gen (%v) must clearly exceed verify (%v)", gen128, verify128)
	}
	// And generation per proof must grow with q even though h shrinks.
	gen8 := parseMs(t, tb.Rows[0][2])
	if gen128 <= gen8 {
		t.Errorf("gen at q=128 (%v) must exceed gen at q=8 (%v)", gen128, gen8)
	}
}

func TestBaselineComparisonTable(t *testing.T) {
	tb, err := RunBaselineComparison(zkedb.TestParams(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Strawman must be reported as unable to prove non-ownership.
	found := false
	for _, row := range tb.Rows {
		if row[0] == "non-ownership proof" && row[1] == "impossible" {
			found = true
		}
	}
	if !found {
		t.Fatal("comparison must state the strawman cannot prove non-ownership")
	}
}

func TestIncentiveTable(t *testing.T) {
	cfg := sim.DefaultConfig()
	cfg.Trials = 200
	tb, err := RunIncentive(cfg, []float64{0.01, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	if _, err := RunIncentive(cfg, []float64{3}); err == nil {
		t.Fatal("invalid sweep point must be rejected")
	}
}

// TestE2ESmallChains also pins that E8 times first queries: neither a
// participant's proof cache nor the proxy's verify memo may answer any of
// them, whatever the repetition count.
func TestE2ESmallChains(t *testing.T) {
	cacheHits := obs.Default.Counter("desword_proofcache_hits", "")
	memoHits := obs.Default.Counter("desword_verifymemo_hits", "")
	cache0, memo0 := cacheHits.Value(), memoHits.Value()
	tb, err := RunE2E(zkedb.TestParams(), []int{2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if parseMs(t, row[1]) < 0 || parseMs(t, row[2]) < 0 {
			t.Fatal("latencies must be non-negative")
		}
	}
	if got := cacheHits.Value() - cache0; got != 0 {
		t.Errorf("E8 queries hit the proof cache %d times, want 0", got)
	}
	if got := memoHits.Value() - memo0; got != 0 {
		t.Errorf("E8 queries hit the verify memo %d times, want 0", got)
	}
}

func TestAblationDBSizeShape(t *testing.T) {
	tb, err := RunAblationDBSize(zkedb.TestParams(), []int{1, 16}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 2 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// Proof size must be independent of the database size.
	if tb.Rows[0][4] != tb.Rows[1][4] {
		t.Fatalf("proof size must not depend on db size: %v vs %v", tb.Rows[0][4], tb.Rows[1][4])
	}
	// Commit cost must grow with the database size.
	small := parseMs(t, tb.Rows[0][1])
	large := parseMs(t, tb.Rows[1][1])
	if large <= small {
		t.Fatalf("commit cost must grow with traces: %v vs %v", small, large)
	}
}

func TestAblationModulusShape(t *testing.T) {
	if testing.Short() {
		t.Skip("timing shape test skipped in short mode")
	}
	tb, err := RunAblationModulus(8, 43, []int{512, 1024}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Proof size must grow with the modulus.
	if parseKB(t, tb.Rows[1][4]) <= parseKB(t, tb.Rows[0][4]) {
		t.Fatalf("proof size must grow with modulus: %v vs %v", tb.Rows[0][4], tb.Rows[1][4])
	}
}

func TestAblationSoftCacheConsistency(t *testing.T) {
	tb, err := RunAblationSoftCache(zkedb.TestParams(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows[1][2] != "yes" {
		t.Fatalf("repeated non-ownership proofs must reuse the pinned chain: %v", tb.Rows[1][2])
	}
}

func TestAblationTreeSchemeShape(t *testing.T) {
	rows := []QH{{Q: 8, H: 43}, {Q: 128, H: 19}}
	tb, err := RunAblationTreeScheme(rows, shapeModulus, 1)
	if err != nil {
		t.Fatal(err)
	}
	// CHLMR proofs must GROW with q (Θ(q·h), q·h = 344 → 2432) while qTMC
	// proofs shrink (Θ(h)) — the inversion that motivates reference [11].
	chlmrSmall := parseKB(t, tb.Rows[0][2])
	chlmrLarge := parseKB(t, tb.Rows[1][2])
	if chlmrLarge <= chlmrSmall {
		t.Fatalf("CHLMR proofs must grow with q: %v vs %v", chlmrSmall, chlmrLarge)
	}
	qSmall := parseKB(t, tb.Rows[0][3])
	qLarge := parseKB(t, tb.Rows[1][3])
	if qLarge >= qSmall {
		t.Fatalf("qTMC proofs must shrink with h: %v vs %v", qSmall, qLarge)
	}
}
