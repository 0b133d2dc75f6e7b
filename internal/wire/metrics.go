package wire

import "desword/internal/obs"

// frameCounters is the (frames, bytes) counter pair of one direction and
// message type.
type frameCounters struct {
	frames *obs.Counter
	bytes  *obs.Counter
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

func buildCounters(dir string) map[string]frameCounters {
	m := make(map[string]frameCounters, len(knownTypes))
	for _, t := range knownTypes {
		m[t] = newFrameCounters(dir, t)
	}
	return m
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
// length prefix is added here). Unknown message types — possible only for
// peers speaking a newer protocol — fall back to a registry lookup.
func countFrame(dir map[string]frameCounters, dirName, msgType string, frameLen int) {
	fc, ok := dir[msgType]
	if !ok {
		fc = newFrameCounters(dirName, msgType)
	}
	fc.frames.Inc()
	fc.bytes.Add(uint64(frameLen) + 4)
}
