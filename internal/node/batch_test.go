package node

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"desword/internal/core"
	"desword/internal/events"
	"desword/internal/poc"
	"desword/internal/wire"
)

// TestNetworkBatchQuery runs a batch over real TCP: known ids resolve, a
// duplicate shares its twin's outcome, and an unknown id degrades to a
// no-origin result — never failing the rest of the batch.
func TestNetworkBatchQuery(t *testing.T) {
	d := deploy(t, 4, nil)
	ids := []poc.ProductID{d.product, "no-such-product", d.product}
	batch, err := d.client.QueryPathBatch(context.Background(), ids, core.Good)
	if err != nil {
		t.Fatalf("QueryPathBatch over TCP: %v", err)
	}
	if len(batch.Items) != len(ids) {
		t.Fatalf("batch returned %d items, want %d", len(batch.Items), len(ids))
	}
	want := d.dist.Ground.Paths[d.product]
	for _, i := range []int{0, 2} {
		item := batch.Items[i]
		if item.Err != nil {
			t.Fatalf("item %d errored: %v", i, item.Err)
		}
		if len(item.Result.Path) != len(want) || !item.Result.Complete {
			t.Fatalf("item %d path = %v (complete=%v), want %v", i, item.Result.Path, item.Result.Complete, want)
		}
	}
	missing := batch.Items[1]
	if missing.Err != nil {
		t.Fatalf("unknown product must yield a no-origin result, not an error: %v", missing.Err)
	}
	if len(missing.Result.Path) != 0 || missing.Result.TaskID != "" {
		t.Fatalf("unknown product resolved a path: %+v", missing.Result)
	}
}

// TestNetworkBatchScoresAndAudit runs a batch over TCP and cross-checks the
// per-id result against the score table and the audit log end to end.
func TestNetworkBatchScoresAndAudit(t *testing.T) {
	d := deploy(t, 4, nil)
	batch, err := d.client.QueryPathBatch(context.Background(), []poc.ProductID{d.product}, core.Good)
	if err != nil {
		t.Fatalf("QueryPathBatch: %v", err)
	}
	result := batch.Items[0].Result
	if result == nil || !result.Complete {
		t.Fatalf("batch item did not complete: %+v", batch.Items[0])
	}
	scores, err := d.client.Scores(context.Background())
	if err != nil {
		t.Fatalf("Scores: %v", err)
	}
	for _, v := range result.Path {
		if scores[v] <= 0 {
			t.Fatalf("path member %s has score %v, want > 0", v, scores[v])
		}
	}
	// AuditLog must verify the chain client-side and return it: one entry
	// per awarded hop.
	entries, err := d.client.AuditLog(context.Background())
	if err != nil {
		t.Fatalf("AuditLog: %v", err)
	}
	if len(entries) != len(result.Path) {
		t.Fatalf("audit log has %d entries, want %d", len(entries), len(result.Path))
	}
}

// TestNetworkBatchSchemaRejected pins the envelope compat contract: a batch
// request stamped with a future schema version is rejected loudly, not
// half-understood — also when the version hides in a case variant of the
// schema key, which encoding/json matches case-insensitively and lets
// override the exact key: the gate sees the value that took effect.
func TestNetworkBatchSchemaRejected(t *testing.T) {
	d := deploy(t, 3, nil)
	newer, err := json.Marshal(wire.QueryPathBatchRequest{
		Schema:   wire.BatchSchemaVersion + 1,
		Products: []poc.ProductID{d.product},
		Quality:  int(core.Good),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, payload := range []string{
		string(newer),
		fmt.Sprintf(`{"schema":%d,"products":[%q],"quality":%d,"SCHEMA":99}`, wire.BatchSchemaVersion, d.product, core.Good),
	} {
		conn, err := net.Dial("tcp", d.client.Pool().Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := wire.WriteEnvelope(conn, &wire.Envelope{Type: wire.TypeQueryPathBatch, Payload: json.RawMessage(payload)}); err != nil {
			t.Fatal(err)
		}
		env, err := wire.ReadMessage(conn)
		if err != nil {
			t.Fatal(err)
		}
		if env.Type != wire.TypeError {
			t.Fatalf("%s: answered with %q, want error", payload, env.Type)
		}
		var er wire.ErrorResponse
		if err := env.Decode(&er); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(er.Message, "schema") {
			t.Fatalf("%s: error %q does not name the schema mismatch", payload, er.Message)
		}
	}
}

// stalledResponder blocks every query until its context expires, so a server
// admission test can saturate the worker pool deterministically.
type stalledResponder struct {
	entered chan struct{}
	once    sync.Once
}

func (r *stalledResponder) Query(ctx context.Context, taskID string, id poc.ProductID, quality core.Quality) (*core.Response, error) {
	r.once.Do(func() { close(r.entered) })
	<-ctx.Done()
	return nil, ctx.Err()
}

func (r *stalledResponder) DemandOwnership(ctx context.Context, taskID string, id poc.ProductID) (*core.Response, error) {
	return nil, errors.New("stalled")
}

// TestServerAdmissionSheds pins the node-server half of the protection
// tentpole: a server whose single admission worker is busy answers the next
// request with a load-shed error immediately — long before the request
// timeout — and records a load_shed node_request event.
func TestServerAdmissionSheds(t *testing.T) {
	responder := &stalledResponder{entered: make(chan struct{})}
	sink := events.NewSink("test", events.NewRing(64), nil)
	srv, err := ServeParticipant(context.Background(), "127.0.0.1:0", responder,
		WithAdmission(1, -1), WithTimeout(2*time.Second), WithEventSink(sink))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	occupier := NewResponderClient(srv.Addr(), WithRetries(0), WithTimeout(2*time.Second))
	defer occupier.Close()
	go func() {
		_, _ = occupier.Query(context.Background(), "task", "p", core.Good)
	}()
	select {
	case <-responder.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("occupier never reached the responder")
	}

	victim := NewResponderClient(srv.Addr(), WithRetries(0), WithTimeout(2*time.Second))
	defer victim.Close()
	start := time.Now()
	_, qerr := victim.Query(context.Background(), "task", "p", core.Good)
	elapsed := time.Since(start)
	if qerr == nil {
		t.Fatal("saturated server admitted the query")
	}
	if !strings.Contains(qerr.Error(), "load shed") {
		t.Fatalf("err = %v, want a load-shed rejection", qerr)
	}
	if elapsed > time.Second {
		t.Fatalf("shed took %v; must be immediate, not a timeout", elapsed)
	}
	shed := sink.Ring().Query(events.Filter{Kind: events.KindNodeRequest, Outcome: events.OutcomeLoadShed}, 10)
	if len(shed) == 0 {
		t.Fatal("no load_shed node_request event recorded")
	}
	if shed[0].MsgType != wire.TypeQuery {
		t.Fatalf("shed event msg_type = %q, want %q", shed[0].MsgType, wire.TypeQuery)
	}
}
