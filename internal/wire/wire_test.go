package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"desword/internal/core"
	"desword/internal/obs"
	"desword/internal/poc"
	"desword/internal/zkedb"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, TypeQuery, QueryRequest{TaskID: "t", Product: "id1", Quality: 1}); err != nil {
		t.Fatal(err)
	}
	env, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if env.Type != TypeQuery {
		t.Fatalf("type = %q", env.Type)
	}
	var req QueryRequest
	if err := env.Decode(&req); err != nil {
		t.Fatal(err)
	}
	if req.TaskID != "t" || req.Product != "id1" || req.Quality != 1 {
		t.Fatalf("decoded %+v", req)
	}
}

func TestMultipleFramesOnOneStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := WriteMessage(&buf, TypeAck, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		env, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if env.Type != TypeAck {
			t.Fatalf("frame %d type = %q", i, env.Type)
		}
	}
	if _, err := ReadMessage(&buf); err == nil {
		t.Fatal("reading past the last frame must fail")
	}
}

func TestReadRejectsOversizedFrame(t *testing.T) {
	buf := bytes.NewBuffer([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadMessage(buf); err == nil {
		t.Fatal("oversized frame must be rejected before allocation")
	}
}

func TestReadRejectsTruncatedFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, TypeAck, nil); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-2]
	if _, err := ReadMessage(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated frame must be rejected")
	}
}

// frameOf hand-assembles a frame: the length prefix, version, header length,
// header and attachment, with no validation, so tests can build what
// WriteEnvelope refuses to.
func frameOf(version byte, header string, attachment []byte) []byte {
	body := append([]byte{version}, binary.AppendUvarint(nil, uint64(len(header)))...)
	body = append(append(body, header...), attachment...)
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
}

func TestReadRejectsMissingType(t *testing.T) {
	frame := frameOf(frameVersion, `{"payload":{}}`, nil)
	if _, err := ReadMessage(bytes.NewReader(frame)); err == nil {
		t.Fatal("envelope without a type must be rejected")
	}
}

func TestReadRejectsMalformedFrames(t *testing.T) {
	for _, c := range []struct {
		name  string
		frame []byte
	}{
		{"empty body", []byte{0, 0, 0, 0}},
		{"zero-length header", frameOf(frameVersion, "", nil)},
		{"header length past the end", append(binary.BigEndian.AppendUint32(nil, 3), frameVersion, 9, '{')},
		{"unterminated header length", append(binary.BigEndian.AppendUint32(nil, 2), frameVersion, 0x80)},
		{"attachment on a query frame", frameOf(frameVersion, `{"type":"query","payload":{}}`, []byte{1, 2})},
		{"unknown version", frameOf(frameVersion+1, `{"type":"ack"}`, nil)},
	} {
		if _, err := ReadMessage(bytes.NewReader(c.frame)); !errors.Is(err, ErrBadEnvelope) {
			t.Errorf("%s: err = %v, want ErrBadEnvelope", c.name, err)
		}
	}
}

// TestFrameVersionIsolatesReleases pins the frame version change in both
// directions: a bare-JSON frame as earlier releases wrote it is rejected
// with ErrBadEnvelope, and such a release, which unmarshals the whole body
// as JSON, cannot parse a current frame.
func TestFrameVersionIsolatesReleases(t *testing.T) {
	old := []byte(`{"type":"query","payload":{"task_id":"t","product":"p","quality":1}}`)
	oldFrame := append(binary.BigEndian.AppendUint32(nil, uint32(len(old))), old...)
	if _, err := ReadMessage(bytes.NewReader(oldFrame)); !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("bare-JSON frame: err = %v, want ErrBadEnvelope", err)
	}
	var buf bytes.Buffer
	if err := WriteMessage(&buf, TypeQuery, QueryRequest{TaskID: "t", Product: "p", Quality: 1}); err != nil {
		t.Fatal(err)
	}
	var env Envelope
	if err := json.Unmarshal(buf.Bytes()[4:], &env); err == nil {
		t.Fatalf("a bare-JSON reader parsed a current frame as %+v", env)
	}
}

// TestReadAllocatesForBytesReceived pins that a length prefix alone cannot
// pin memory: a frame claiming MaxMessageSize that ends at once costs less
// than 1 MiB, while a frame of exactly MaxMessageSize still round-trips.
func TestReadAllocatesForBytesReceived(t *testing.T) {
	claim := binary.BigEndian.AppendUint32(nil, MaxMessageSize)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := ReadMessage(bytes.NewReader(claim)); err == nil {
		t.Fatal("a frame with no body was accepted")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("an empty frame claiming %d bytes allocated %d", MaxMessageSize, got)
	}

	header := `{"type":"response","payload":{"claim":1,"proof":{"kind":1}}}`
	frame := make([]byte, 4+MaxMessageSize)
	binary.BigEndian.PutUint32(frame, MaxMessageSize)
	frame[4], frame[5] = frameVersion, byte(len(header))
	copy(frame[6:], header)
	env, err := ReadMessage(bytes.NewReader(frame))
	if err != nil {
		t.Fatalf("frame at the cap rejected: %v", err)
	}
	same := &matchWriter{want: frame}
	if err := WriteEnvelope(same, env); err != nil {
		t.Fatal(err)
	}
	if !same.ok() {
		t.Fatal("frame at the cap did not re-frame byte for byte")
	}
	env.attachment = frame[4:] // one header's worth past the cap, without a copy
	if err := WriteEnvelope(same, env); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("frame past the cap: err = %v, want ErrFrameTooLarge", err)
	}
}

// matchWriter checks what is written against want without keeping a copy.
type matchWriter struct {
	want     []byte
	off      int
	mismatch bool
}

func (w *matchWriter) Write(p []byte) (int, error) {
	w.mismatch = w.mismatch || !bytes.HasPrefix(w.want[w.off:], p)
	w.off += len(p)
	return len(p), nil
}

func (w *matchWriter) ok() bool { return !w.mismatch && w.off == len(w.want) }

// TestResponseFrameCarriesRawProof pins what a proof costs on the wire at
// the paper's geometry (q=16, h=32): the response frame the participant
// server writes is the proof's compact encoding, which Table II measures,
// plus at most 256 bytes of header; and the proof's bytes come back
// unchanged.
func TestResponseFrameCarriesRawProof(t *testing.T) {
	ps, err := poc.PSGen(zkedb.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	_, dpoc, err := poc.Agg(ps, "v1", []poc.Trace{{Product: "id1", Data: []byte("op=make;station=0")}}, poc.AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := dpoc.Prove(context.Background(), "id1")
	if err != nil {
		t.Fatal(err)
	}
	size, err := proof.ZK.Size()
	if err != nil {
		t.Fatal(err)
	}
	resp, err := EncodeResponse(&core.Response{Claim: core.ClaimProcessed, Proof: proof, Next: "v2"})
	if err != nil {
		t.Fatal(err)
	}
	env, err := NewEnvelope(TypeResponse, resp)
	if err != nil {
		t.Fatal(err)
	}
	env.ReqID = NewRequestID()
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	t.Logf("q=16, h=32 ownership proof: %d bytes encoded, %d bytes framed", size, buf.Len())
	if buf.Len() > size+256 {
		t.Fatalf("response frame is %d bytes for a %d-byte proof, want at most %d", buf.Len(), size, size+256)
	}
	back, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var wr QueryResponse
	if err := back.Decode(&wr); err != nil {
		t.Fatal(err)
	}
	want, err := proof.Encoding()
	if err != nil {
		t.Fatal(err)
	}
	if wr.Proof == nil || !bytes.Equal(wr.Proof.ZK, want) {
		t.Fatal("the proof's bytes did not survive the frame")
	}
}

// TestEncodeCachedProofDoesNotEncode pins encode-once: a proof Prove made
// carries its encoding, so putting it on the wire costs one allocation (the
// wire proof) and no encoding.
func TestEncodeCachedProofDoesNotEncode(t *testing.T) {
	ps, err := poc.PSGen(zkedb.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	_, dpoc, err := poc.Agg(ps, "v1", []poc.Trace{{Product: "id1", Data: []byte("d")}}, poc.AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := dpoc.Prove(context.Background(), "id1")
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := EncodeProof(proof); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("EncodeProof on a cached proof: %v allocations, want 1", allocs)
	}
}

func TestDecodeEmptyPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteMessage(&buf, TypeAck, nil); err != nil {
		t.Fatal(err)
	}
	env, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var v struct{}
	if err := env.Decode(&v); err == nil {
		t.Fatal("decoding an empty payload must fail")
	}
}

func TestProofRoundTrip(t *testing.T) {
	ps, err := poc.PSGen(zkedb.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	credential, dpoc, err := poc.Agg(ps, "v1", []poc.Trace{{Product: "id1", Data: []byte("d")}}, poc.AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, product := range []poc.ProductID{"id1", "missing"} {
		proof, err := dpoc.Prove(context.Background(), product)
		if err != nil {
			t.Fatal(err)
		}
		encoded, err := EncodeProof(proof)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeProof(encoded)
		if err != nil {
			t.Fatal(err)
		}
		if decoded.Kind != proof.Kind {
			t.Fatal("kind must survive the round trip")
		}
		if _, err := poc.Verify(context.Background(), ps, credential, product, decoded); err != nil {
			t.Fatalf("round-tripped proof must verify: %v", err)
		}
	}
	if p, err := EncodeProof(nil); err != nil || p != nil {
		t.Fatal("nil proof must encode to nil")
	}
	if p, err := DecodeProof(nil); err != nil || p != nil {
		t.Fatal("nil wire proof must decode to nil")
	}
	// Bytes that do not decode still arrive, as a proof verification
	// rejects: a malformed proof is an invalid proof, not a failed exchange.
	undecodable, err := DecodeProof(&Proof{Kind: int(poc.Ownership), ZK: []byte{1, 0xff, 0xff}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := poc.Verify(context.Background(), ps, credential, "id1", undecodable); !errors.Is(err, poc.ErrBadProof) {
		t.Fatalf("undecodable proof bytes: err = %v, want ErrBadProof", err)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	ps, err := poc.PSGen(zkedb.TestParams())
	if err != nil {
		t.Fatal(err)
	}
	_, dpoc, err := poc.Agg(ps, "v1", []poc.Trace{{Product: "id1", Data: []byte("d")}}, poc.AggOptions{})
	if err != nil {
		t.Fatal(err)
	}
	proof, err := dpoc.Prove(context.Background(), "id1")
	if err != nil {
		t.Fatal(err)
	}
	resp := &core.Response{Claim: core.ClaimProcessed, Proof: proof, Next: "v2"}
	encoded, err := EncodeResponse(resp)
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := DecodeResponse(encoded)
	if err != nil {
		t.Fatal(err)
	}
	if decoded.Claim != resp.Claim || decoded.Next != resp.Next || decoded.Proof.Kind != proof.Kind {
		t.Fatalf("decoded %+v", decoded)
	}
}

func TestPathResultRoundTrip(t *testing.T) {
	r := &core.Result{
		Product: "id1",
		Quality: core.Good,
		TaskID:  "t",
		Path:    []poc.ParticipantID{"a", "b"},
		Traces: map[poc.ParticipantID]poc.Trace{
			"a": {Product: "id1", Data: []byte("x")},
		},
		Violations: []core.Violation{{Participant: "b", Type: core.ViolationWrongNextHop, Detail: "d"}},
		Complete:   true,
	}
	back := DecodePathResult(EncodePathResult(r))
	if back.Product != r.Product || back.Quality != r.Quality || !back.Complete {
		t.Fatalf("decoded %+v", back)
	}
	if len(back.Path) != 2 || len(back.Violations) != 1 || string(back.Traces["a"].Data) != "x" {
		t.Fatalf("decoded %+v", back)
	}
}

func TestRequestIDRoundTrip(t *testing.T) {
	id := NewRequestID()
	if !ValidRequestID(id) {
		t.Fatalf("NewRequestID produced invalid id %q", id)
	}
	env, err := NewEnvelope(TypeQuery, QueryRequest{TaskID: "t", Product: "p", Quality: 1})
	if err != nil {
		t.Fatal(err)
	}
	env.ReqID = id
	var buf bytes.Buffer
	if err := WriteEnvelope(&buf, env); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMessage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.RequestID() != id {
		t.Fatalf("req_id %q round-tripped as %q", id, back.RequestID())
	}
}

func TestRequestIDValidation(t *testing.T) {
	for _, bad := range []string{
		"", "short", "0123456789abcde", "0123456789abcdef0", // wrong length
		"0123456789ABCDEF",    // uppercase
		"0123456789abcdeg",    // non-hex
		"../../../etc/passwd", // injection attempt
	} {
		if ValidRequestID(bad) {
			t.Errorf("ValidRequestID(%q) = true, want false", bad)
		}
		env := &Envelope{Type: TypeQuery, ReqID: bad}
		if got := env.RequestID(); got != "" {
			t.Errorf("RequestID() leaked invalid id %q as %q", bad, got)
		}
	}
	if !ValidRequestID("0123456789abcdef") {
		t.Error("well-formed request id rejected")
	}
}

// frameSeries reads the desword_wire_frames_total series off the default
// registry's exposition, keyed by label set.
func frameSeries(t *testing.T) map[string]uint64 {
	t.Helper()
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]uint64)
	for _, line := range strings.Split(b.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, "desword_wire_frames_total{"); ok {
			labels, value, _ := strings.Cut(rest, "} ")
			n, err := strconv.ParseUint(value, 10, 64)
			if err != nil {
				t.Fatalf("series %q: %v", line, err)
			}
			out[labels] = n
		}
	}
	return out
}

// TestUnknownTypesShareOneSeries pins that message types outside the
// protocol cannot grow the metrics registry: frames of 200 distinct made-up
// types, written and read back, count under the type="other" series of each
// direction, and the frames family keeps its series count.
func TestUnknownTypesShareOneSeries(t *testing.T) {
	const junk = 200
	before := frameSeries(t)
	var buf bytes.Buffer
	for i := 0; i < junk; i++ {
		if err := WriteMessage(&buf, fmt.Sprintf("junk-%d", i), nil); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadMessage(&buf); err != nil {
			t.Fatal(err)
		}
	}
	after := frameSeries(t)
	if len(after) != len(before) {
		t.Fatalf("desword_wire_frames_total went from %d to %d series", len(before), len(after))
	}
	for _, dir := range []string{"read", "write"} {
		key := fmt.Sprintf(`dir=%q,type="other"`, dir)
		if got := after[key] - before[key]; got != junk {
			t.Fatalf("%s frames counted %d more, want %d", key, got, junk)
		}
	}
}
