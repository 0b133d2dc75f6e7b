package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"

	"desword/internal/poc"
	"desword/internal/trace"
	"desword/internal/zkedb"
)

// FuzzReadMessage hammers the TCP frame parser with arbitrary byte streams:
// it must reject garbage with an error, never panic, and never allocate
// beyond the frame cap. An accepted envelope must re-frame byte for byte:
// what WriteEnvelope makes of it reads back as the same envelope and
// re-frames to the same bytes, attachment included.
func FuzzReadMessage(f *testing.F) {
	var seed bytes.Buffer
	if err := WriteMessage(&seed, TypeQuery, QueryRequest{TaskID: "t", Product: "p", Quality: 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	seed.Reset()
	if err := WriteMessage(&seed, TypeResponse, &QueryResponse{Claim: 1, Proof: &Proof{Kind: 1, ZK: []byte{1, 0, 0, 7}}, Next: "v2"}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	f.Add(frameOf(frameVersion, "", nil))
	f.Add(append(binary.BigEndian.AppendUint32(nil, 4), frameVersion, 40, '{', '}'))

	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := ReadMessage(bytes.NewReader(data))
		if err != nil {
			return
		}
		if env.Type == "" {
			t.Fatal("accepted envelope must carry a type")
		}
		var first bytes.Buffer
		if err := WriteEnvelope(&first, env); err != nil {
			t.Fatalf("re-framing accepted envelope: %v", err)
		}
		frame := bytes.Clone(first.Bytes())
		back, err := ReadMessage(&first)
		if err != nil {
			t.Fatalf("re-reading a re-framed envelope: %v", err)
		}
		if back.Type != env.Type || back.RequestID() != env.RequestID() || !bytes.Equal(back.attachment, env.attachment) {
			t.Fatalf("re-framing changed the envelope: %+v → %+v", env, back)
		}
		var second bytes.Buffer
		if err := WriteEnvelope(&second, back); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(second.Bytes(), frame) {
			t.Fatalf("re-framing is not byte for byte:\n%q\n%q", frame, second.Bytes())
		}
	})
}

// FuzzEnvelopeHeaderCompat pins old↔new envelope compatibility: an envelope
// whose JSON carries unknown or extra header fields (a newer peer), or omits
// the optional trace/request-id headers entirely (an older peer), must decode
// to the same type/payload either way, and whatever trace context or request
// id survives validation must round-trip.
func FuzzEnvelopeHeaderCompat(f *testing.F) {
	f.Add("query", `{"a":1}`, "00000000000000000000000000000000", "0123456789abcdef", "fedcba9876543210", "future_field", `"v2"`)
	f.Add("query_path", `null`, "", "", "", "spans", `[{"bogus":true}]`)
	f.Add("params", `{}`, "not-a-trace-id", "xyz", "not-a-req-id", "trace_flags", `7`)
	f.Add("error", `{"message":"x"}`, "ABCDEF", "", "0123456789abcdef", "", ``)

	f.Fuzz(func(t *testing.T, msgType, payload, traceID, spanID, reqID, extraKey, extraVal string) {
		if !json.Valid([]byte(payload)) {
			return
		}
		// Hand-assemble envelope JSON the way a peer with a newer schema
		// would: the known fields plus one arbitrary extra header.
		fields := []string{fmt.Sprintf(`"type":%q`, msgType)}
		if traceID != "" {
			fields = append(fields, fmt.Sprintf(`"trace_id":%q`, traceID))
		}
		if spanID != "" {
			fields = append(fields, fmt.Sprintf(`"span_id":%q`, spanID))
		}
		if reqID != "" {
			fields = append(fields, fmt.Sprintf(`"req_id":%q`, reqID))
		}
		fields = append(fields, `"payload":`+payload)
		if extraKey != "" && !foldsToField(extraKey, "type", "trace_id", "span_id", "payload", "spans", "req_id") &&
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

		if len(raw) > MaxMessageSize/2 {
			return
		}
		env, err := ReadMessage(bytes.NewReader(frameOf(frameVersion, raw, nil)))
		if msgType == "" {
			if err == nil {
				t.Fatal("envelope without a type was accepted")
			}
			return
		}
		if err != nil {
			t.Fatalf("well-formed envelope with extra headers rejected: %v\n%s", err, raw)
		}
		if env.Type != msgType {
			t.Fatalf("type %q decoded as %q", msgType, env.Type)
		}

		// Trace context survives only when both halves validate — anything
		// else reads as "no context", exactly what an old peer sees.
		gotTrace, gotSpan := env.TraceContext()
		if trace.ValidTraceID(traceID) && trace.ValidSpanID(spanID) {
			if gotTrace != traceID || gotSpan != spanID {
				t.Fatalf("valid trace context %s/%s decoded as %s/%s", traceID, spanID, gotTrace, gotSpan)
			}
		} else if gotTrace != "" || gotSpan != "" {
			t.Fatalf("invalid trace context %q/%q leaked through as %q/%q", traceID, spanID, gotTrace, gotSpan)
		}

		// Same deal for the request id: only well-formed ids survive.
		if got := env.RequestID(); ValidRequestID(reqID) {
			if got != reqID {
				t.Fatalf("valid req_id %q decoded as %q", reqID, got)
			}
		} else if got != "" {
			t.Fatalf("invalid req_id %q leaked through as %q", reqID, got)
		}

		// An old peer re-framing this envelope (dropping fields it does not
		// know) must produce something the new code still reads.
		var old bytes.Buffer
		if err := WriteMessage(&old, env.Type, env.Payload); err != nil {
			t.Fatalf("old-style re-framing: %v", err)
		}
		back, err := ReadMessage(&old)
		if err != nil {
			t.Fatalf("re-reading old-style frame: %v", err)
		}
		if back.Type != env.Type {
			t.Fatalf("old-style round trip changed type %q → %q", env.Type, back.Type)
		}
		if bt, bs := back.TraceContext(); bt != "" || bs != "" {
			t.Fatal("old-style frame must carry no trace context")
		}
		if back.RequestID() != "" {
			t.Fatal("old-style frame must carry no request id")
		}
	})
}

// foldsToField reports whether encoding/json would decode key into one of
// the named fields: it matches object keys case-insensitively, under
// Unicode case folding ("TYPE", "ſchema"), so a test's "unknown extra key"
// must differ from every field name under strings.EqualFold.
func foldsToField(key string, fields ...string) bool {
	for _, f := range fields {
		if strings.EqualFold(key, f) {
			return true
		}
	}
	return false
}

func join(fields []string) string {
	out := ""
	for i, f := range fields {
		if i > 0 {
			out += ","
		}
		out += f
	}
	return out
}

// FuzzDecodeProof feeds the proof layer of query responses raw attachment
// bytes: decoding wraps them unchanged, and verification rejects whatever
// is not an honest proof with ErrBadProof or ErrKindMismatch, without
// panicking.
func FuzzDecodeProof(f *testing.F) {
	ps, err := poc.PSGen(zkedb.TestParams())
	if err != nil {
		f.Fatal(err)
	}
	credential, dpoc, err := poc.Agg(ps, "v1", []poc.Trace{{Product: "id1", Data: []byte("d")}}, poc.AggOptions{})
	if err != nil {
		f.Fatal(err)
	}
	for _, id := range []poc.ProductID{"id1", "missing"} {
		proof, err := dpoc.Prove(context.Background(), id)
		if err != nil {
			f.Fatal(err)
		}
		data, err := proof.Encoding()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(int(proof.Kind), data)
	}
	f.Add(1, []byte{1})
	f.Add(2, []byte{})
	f.Add(0, []byte("####"))
	f.Fuzz(func(t *testing.T, kind int, zk []byte) {
		p, err := DecodeProof(&Proof{Kind: kind, ZK: zk})
		if err != nil || p == nil {
			t.Fatalf("DecodeProof = %v, %v; it only wraps bytes", p, err)
		}
		if data, err := p.Encoding(); err != nil || !bytes.Equal(data, zk) {
			t.Fatalf("wrapped proof encodes as %x, %v; received %x", data, err, zk)
		}
		for _, id := range []poc.ProductID{"id1", "missing"} {
			_, err := poc.Verify(context.Background(), ps, credential, id, p)
			if err != nil && !errors.Is(err, poc.ErrBadProof) && !errors.Is(err, poc.ErrKindMismatch) {
				t.Fatalf("verifying received bytes: %v is neither ErrBadProof nor ErrKindMismatch", err)
			}
		}
	})
}
