package core

import (
	"context"
	"math/rand"
	"testing"

	"desword/internal/poc"
)

func TestSampleAndQuery(t *testing.T) {
	fx := newFixture(t, 8)
	market := make([]poc.ProductID, 0, len(fx.dist.Ground.Paths))
	for id := range fx.dist.Ground.Paths {
		market = append(market, id)
	}
	// Deterministic inspection: id3 is bad, everything else good.
	check := func(id poc.ProductID) Quality {
		if id == "id3" {
			return Bad
		}
		return Good
	}
	rng := rand.New(rand.NewSource(7))
	report, err := fx.proxy.SampleAndQuery(context.Background(), rng, market, 1.0, check)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Sampled) != len(market) {
		t.Fatalf("rate 1.0 must sample everything: %d/%d", len(report.Sampled), len(market))
	}
	if report.BadCount != 1 || report.GoodCount != len(market)-1 {
		t.Fatalf("counts = good %d bad %d", report.GoodCount, report.BadCount)
	}
	for i, res := range report.Results {
		if len(res.Path) == 0 || !res.Complete {
			t.Fatalf("sampled query %d incomplete: %+v", i, res)
		}
	}
	// The double edge landed: every involved participant was scored at least
	// once (positive and negative awards may net out for participants on
	// both kinds of path), and the bad path produced negative events.
	ledger := fx.proxy.Ledger()
	scoredBy := make(map[poc.ParticipantID]int)
	negative := 0
	for _, entry := range ledger.AuditLog() {
		scoredBy[entry.Event.Participant]++
		if entry.Event.Delta < 0 {
			negative++
		}
	}
	for _, v := range fx.dist.Ground.Involved {
		if scoredBy[v] == 0 {
			t.Fatalf("sampled campaign must have scored %s", v)
		}
	}
	if negative != len(fx.dist.Ground.Paths["id3"]) {
		t.Fatalf("bad path must produce one negative event per hop, got %d", negative)
	}
}

func TestSampleAndQueryRateZero(t *testing.T) {
	fx := newFixture(t, 2)
	rng := rand.New(rand.NewSource(1))
	report, err := fx.proxy.SampleAndQuery(context.Background(), rng, []poc.ProductID{"id1", "id2"}, 0,
		func(poc.ProductID) Quality { return Good })
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Sampled) != 0 {
		t.Fatal("rate 0 must sample nothing")
	}
}

func TestSampleAndQueryPartialRateDeterministic(t *testing.T) {
	fx := newFixture(t, 8)
	market := make([]poc.ProductID, 0, 8)
	for id := range fx.dist.Ground.Paths {
		market = append(market, id)
	}
	check := func(poc.ProductID) Quality { return Good }
	a, err := fx.proxy.SampleAndQuery(context.Background(), rand.New(rand.NewSource(42)), market, 0.5, check)
	if err != nil {
		t.Fatal(err)
	}
	b, err := fx.proxy.SampleAndQuery(context.Background(), rand.New(rand.NewSource(42)), market, 0.5, check)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Sampled) != len(b.Sampled) {
		t.Fatal("same seed must sample the same subset")
	}
}

func TestSampleAndQueryValidation(t *testing.T) {
	fx := newFixture(t, 2)
	check := func(poc.ProductID) Quality { return Good }
	rng := rand.New(rand.NewSource(1))
	if _, err := fx.proxy.SampleAndQuery(context.Background(), nil, nil, 0.5, check); err == nil {
		t.Fatal("nil rng must be rejected")
	}
	if _, err := fx.proxy.SampleAndQuery(context.Background(), rng, nil, 1.5, check); err == nil {
		t.Fatal("rate > 1 must be rejected")
	}
	if _, err := fx.proxy.SampleAndQuery(context.Background(), rng, nil, 0.5, nil); err == nil {
		t.Fatal("nil quality check must be rejected")
	}
}
