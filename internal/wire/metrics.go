package wire

import "desword/internal/obs"

// frameCounters is the (frames, bytes) counter pair of one direction and
// message type.
type frameCounters struct {
	frames *obs.Counter
	bytes  *obs.Counter
}

// frameDir holds one direction's counters: a pair per known message type
// and one pair, type="other", for every type outside the protocol.
type frameDir struct {
	byType map[string]frameCounters
	other  frameCounters
}

// knownTypes enumerates every message type of the protocol, so the hot-path
// counter lookup is a read-only map access with no lock and no allocation.
var knownTypes = []string{
	TypeQuery, TypeDemandOwnership, TypeResponse, TypeGetParams, TypeParams,
	TypeRegisterList, TypeQueryPath, TypePathResult, TypeScores,
	TypeScoreTable, TypeAuditLog, TypeAuditChain, TypeAck, TypeError,
}

var (
	readCounters  = buildCounters("read")
	writeCounters = buildCounters("write")
)

func buildCounters(dir string) *frameDir {
	d := &frameDir{
		byType: make(map[string]frameCounters, len(knownTypes)),
		other:  newFrameCounters(dir, "other"),
	}
	for _, t := range knownTypes {
		d.byType[t] = newFrameCounters(dir, t)
	}
	return d
}

func newFrameCounters(dir, msgType string) frameCounters {
	return frameCounters{
		frames: obs.Default.Counter("desword_wire_frames_total",
			"Framed messages by direction and message type.",
			"dir", dir, "type", msgType),
		bytes: obs.Default.Counter("desword_wire_bytes_total",
			"Framed bytes on the wire (including the 4-byte length prefix) by direction and message type.",
			"dir", dir, "type", msgType),
	}
}

// countFrame records one framed message of n payload-frame bytes (the 4-byte
// length prefix is added here). A type outside knownTypes counts as "other":
// the type string comes from the peer, so a series per type would let any
// client that reaches a port grow the registry without bound.
func countFrame(d *frameDir, msgType string, frameLen int) {
	fc, ok := d.byType[msgType]
	if !ok {
		fc = d.other
	}
	fc.frames.Inc()
	fc.bytes.Add(uint64(frameLen) + 4)
}
