package wire

import (
	"encoding/json"
	"fmt"
	"testing"
)

// FuzzBatchRequestCompat pins the batch envelope's schema-versioned compat
// contract, the req_id fuzzing discipline applied to query_path_batch: a
// request JSON carrying unknown extra fields (a newer peer) must decode to
// the same schema/products/quality; the schema gate must be decidable from
// whatever decoded; and a decoded request must re-encode to JSON a peer can
// read back identically.
func FuzzBatchRequestCompat(f *testing.F) {
	f.Add(1, `["a","b","a"]`, 1, "hint", `"latency"`)
	f.Add(0, `[]`, 2, "", ``)
	f.Add(2, `["x"]`, 1, "deadline_ms", `2500`)
	f.Add(-3, `null`, 0, "schema", `9`)

	f.Fuzz(func(t *testing.T, schema int, productsJSON string, quality int, extraKey, extraVal string) {
		var products []string
		if err := json.Unmarshal([]byte(productsJSON), &products); err != nil {
			return
		}
		fields := []string{
			fmt.Sprintf(`"schema":%d`, schema),
			`"products":` + productsJSON,
			fmt.Sprintf(`"quality":%d`, quality),
		}
		if extraKey != "" && !foldsToField(extraKey, "schema", "products", "quality") &&
			json.Valid([]byte(extraVal)) {
			keyJSON, err := json.Marshal(extraKey)
			if err != nil {
				return
			}
			fields = append(fields, string(keyJSON)+":"+extraVal)
		}
		raw := "{" + join(fields) + "}"
		if !json.Valid([]byte(raw)) {
			return
		}

		var req QueryPathBatchRequest
		if err := json.Unmarshal([]byte(raw), &req); err != nil {
			t.Fatalf("well-formed batch request rejected: %v\n%s", err, raw)
		}
		if req.Schema != schema || req.Quality != quality {
			t.Fatalf("schema/quality %d/%d decoded as %d/%d", schema, quality, req.Schema, req.Quality)
		}
		if len(req.Products) != len(products) {
			t.Fatalf("%d products decoded as %d", len(products), len(req.Products))
		}
		for i, p := range products {
			if string(req.Products[i]) != p {
				t.Fatalf("product %d: %q decoded as %q", i, p, req.Products[i])
			}
		}
		// The server's only version gate: a future schema must be detectable
		// from the decoded struct alone.
		_ = req.Schema > BatchSchemaVersion

		// Round trip: what this side re-encodes, an identical peer reads back
		// field for field (the extra field is dropped, as an older peer
		// would).
		out, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("re-encoding: %v", err)
		}
		var back QueryPathBatchRequest
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-reading re-encoded request: %v", err)
		}
		if back.Schema != req.Schema || back.Quality != req.Quality || len(back.Products) != len(req.Products) {
			t.Fatalf("round trip changed the request: %+v → %+v", req, back)
		}
	})
}

// FuzzBatchResultCompat hammers the batch result decoder with arbitrary item
// shapes: whatever decodes must convert to the core form without panicking,
// preserving the per-item partial-failure triage (result xor error, shed
// flag).
func FuzzBatchResultCompat(f *testing.F) {
	f.Add(1, "t1", `[{"product":"a","result":{"product":"a","quality":1,"complete":true}}]`)
	f.Add(1, "", `[{"product":"b","error":"boom","shed":true}]`)
	f.Add(7, "x", `[{"product":"c"},{"unknown_field":3}]`)
	f.Add(0, "", `[]`)

	f.Fuzz(func(t *testing.T, schema int, traceID, itemsJSON string) {
		raw := fmt.Sprintf(`{"schema":%d,"trace_id":%q,"items":%s}`, schema, traceID, itemsJSON)
		var wireResult BatchResult
		if err := json.Unmarshal([]byte(raw), &wireResult); err != nil {
			return
		}
		decoded := DecodeBatchResult(&wireResult)
		if decoded.TraceID != traceID {
			t.Fatalf("trace id %q decoded as %q", traceID, decoded.TraceID)
		}
		if len(decoded.Items) != len(wireResult.Items) {
			t.Fatalf("%d wire items decoded as %d", len(wireResult.Items), len(decoded.Items))
		}
		for i, item := range decoded.Items {
			w := wireResult.Items[i]
			if item.Shed != w.Shed {
				t.Fatalf("item %d shed flag lost", i)
			}
			if w.Error != "" && item.Err == nil {
				t.Fatalf("item %d error %q dropped", i, w.Error)
			}
			if w.Error == "" && w.Result != nil && item.Result == nil {
				t.Fatalf("item %d result dropped", i)
			}
		}
	})
}
