package zkedb

import (
	"errors"
	"fmt"
	"math/big"

	"desword/internal/mercurial"
	"desword/internal/qmercurial"
)

// This file defines the node store's key layout and record encodings
// (DESIGN.md §13). Keys follow the merkledb idiom of a generalized tree
// index: a short namespace prefix plus the digit-path of the tree position
// (prefixKey: one byte per digit, so a key's length is its level and lexical
// order is tree order). Records are compact binary (the encBuf/decBuf
// machinery proofs already use), not JSON — a production tree holds millions
// of nodes and the store is their primary residence, not a debug snapshot.
//
// Namespaces:
//
//	n/<path> → encoded tree node (internal or leaf)
//	s/<path> → encoded soft entry pinned at an empty position
//	d/<key>  → database value (presence = key committed)
//	m/...    → metadata (geometry echo, build seed)

// Store key namespaces.
const (
	nsNode = "n/"
	nsSoft = "s/"
	nsDB   = "d/"

	metaParamsKey = "m/params"
	metaSeedKey   = "m/seed"
)

// nodeStoreKey maps a digit-path key to its node record key.
func nodeStoreKey(pk string) string { return nsNode + pk }

// softStoreKey maps a digit-path key to its soft-entry record key.
func softStoreKey(pk string) string { return nsSoft + pk }

// dbStoreKey maps a database key to its value record key.
func dbStoreKey(key string) string { return nsDB + key }

// Record format versions and kinds.
const (
	nodeEncVersion byte = 1
	softEncVersion byte = 1

	nodeKindInternal byte = 1
	nodeKindLeaf     byte = 2
)

// encodeNodeRecord serializes a tree node for the store.
func encodeNodeRecord(n *node) []byte {
	var e encBuf
	e.writeByte(nodeEncVersion)
	if n.leaf {
		e.writeByte(nodeKindLeaf)
		e.writeUvarint(uint64(n.level))
		e.writeCommitment(n.leafCom)
		e.writeBigInt(n.leafDec.M)
		e.writeBigInt(n.leafDec.R0)
		e.writeBigInt(n.leafDec.R1)
		e.writeBytes([]byte(n.leafKey))
		e.writeBytes(n.leafValue)
		return e.buf
	}
	e.writeByte(nodeKindInternal)
	e.writeUvarint(uint64(n.level))
	e.writeUvarint(uint64(len(n.slots)))
	for _, slot := range n.slots {
		e.writeUvarint(uint64(slot))
	}
	e.writeCommitment(n.qCom.MC)
	e.writeUvarint(uint64(len(n.qDec.Messages)))
	for _, m := range n.qDec.Messages {
		e.writeBigInt(m)
	}
	e.writeBigInt(n.qDec.Hiding)
	e.writeBigInt(n.qDec.V)
	e.writeBigInt(n.qDec.MCDec.M)
	e.writeBigInt(n.qDec.MCDec.R0)
	e.writeBigInt(n.qDec.MCDec.R1)
	return e.buf
}

// ErrBadState reports a malformed stored decommitment: a node-store record
// that is missing, truncated, or inconsistent with the tree geometry.
var ErrBadState = errors.New("zkedb: malformed decommitment state")

// decodeNodeRecord deserializes a node record, validating it against the
// tree geometry.
func decodeNodeRecord(data []byte, params Params) (*node, error) {
	d := &decBuf{buf: data}
	ver, err := d.readByte()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated node record", ErrBadState)
	}
	if ver != nodeEncVersion {
		return nil, fmt.Errorf("%w: node record version %d", ErrBadState, ver)
	}
	kind, err := d.readByte()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated node record", ErrBadState)
	}
	level, err := d.readUvarint()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated node record", ErrBadState)
	}
	if level > uint64(params.H) {
		return nil, fmt.Errorf("%w: node level %d beyond height %d", ErrBadState, level, params.H)
	}
	n := &node{level: int(level)}
	switch kind {
	case nodeKindLeaf:
		n.leaf = true
		if n.leafCom, err = d.readCommitment(); err != nil {
			return nil, fmt.Errorf("%w: leaf commitment: %w", ErrBadState, err)
		}
		var dec mercurial.HardDecommit
		if dec.M, err = d.readBigInt(); err != nil {
			return nil, fmt.Errorf("%w: leaf decommit: %w", ErrBadState, err)
		}
		if dec.R0, err = d.readBigInt(); err != nil {
			return nil, fmt.Errorf("%w: leaf decommit: %w", ErrBadState, err)
		}
		if dec.R1, err = d.readBigInt(); err != nil {
			return nil, fmt.Errorf("%w: leaf decommit: %w", ErrBadState, err)
		}
		n.leafDec = dec
		keyBytes, err := d.readBytes()
		if err != nil {
			return nil, fmt.Errorf("%w: leaf key: %w", ErrBadState, err)
		}
		if len(keyBytes) == 0 {
			return nil, fmt.Errorf("%w: leaf with empty key", ErrBadState)
		}
		n.leafKey = string(keyBytes)
		if n.leafValue, err = d.readBytes(); err != nil {
			return nil, fmt.Errorf("%w: leaf value: %w", ErrBadState, err)
		}
	case nodeKindInternal:
		nSlots, err := d.readUvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: slot count: %w", ErrBadState, err)
		}
		if nSlots > uint64(params.Q) {
			return nil, fmt.Errorf("%w: %d occupied slots with Q=%d", ErrBadState, nSlots, params.Q)
		}
		n.slots = make([]int, nSlots)
		for i := range n.slots {
			s, err := d.readUvarint()
			if err != nil {
				return nil, fmt.Errorf("%w: slot list: %w", ErrBadState, err)
			}
			if s >= uint64(params.Q) {
				return nil, fmt.Errorf("%w: slot %d out of range", ErrBadState, s)
			}
			if i > 0 && int(s) <= n.slots[i-1] {
				return nil, fmt.Errorf("%w: slot list not strictly sorted", ErrBadState)
			}
			n.slots[i] = int(s)
		}
		mc, err := d.readCommitment()
		if err != nil {
			return nil, fmt.Errorf("%w: node commitment: %w", ErrBadState, err)
		}
		n.qCom = qmercurial.Commitment{MC: mc}
		nMsgs, err := d.readUvarint()
		if err != nil {
			return nil, fmt.Errorf("%w: message count: %w", ErrBadState, err)
		}
		if nMsgs != uint64(params.Q) {
			return nil, fmt.Errorf("%w: %d slot messages with Q=%d", ErrBadState, nMsgs, params.Q)
		}
		n.qDec.Messages = make([]*big.Int, nMsgs)
		for i := range n.qDec.Messages {
			if n.qDec.Messages[i], err = d.readBigInt(); err != nil {
				return nil, fmt.Errorf("%w: slot message: %w", ErrBadState, err)
			}
		}
		if n.qDec.Hiding, err = d.readBigInt(); err != nil {
			return nil, fmt.Errorf("%w: node decommit: %w", ErrBadState, err)
		}
		if n.qDec.V, err = d.readBigInt(); err != nil {
			return nil, fmt.Errorf("%w: node decommit: %w", ErrBadState, err)
		}
		if n.qDec.MCDec.M, err = d.readBigInt(); err != nil {
			return nil, fmt.Errorf("%w: node decommit: %w", ErrBadState, err)
		}
		if n.qDec.MCDec.R0, err = d.readBigInt(); err != nil {
			return nil, fmt.Errorf("%w: node decommit: %w", ErrBadState, err)
		}
		if n.qDec.MCDec.R1, err = d.readBigInt(); err != nil {
			return nil, fmt.Errorf("%w: node decommit: %w", ErrBadState, err)
		}
		n.qDec = n.qDec.Memoized()
	default:
		return nil, fmt.Errorf("%w: node kind %d", ErrBadState, kind)
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes in node record", ErrBadState, len(d.buf)-d.off)
	}
	return n, nil
}

// encodeSoftRecord serializes a soft entry for the store.
func encodeSoftRecord(e *softEntry) []byte {
	var b encBuf
	b.writeByte(softEncVersion)
	b.writeCommitment(e.com)
	b.writeBigInt(e.dec.R0)
	b.writeBigInt(e.dec.R1)
	return b.buf
}

// decodeSoftRecord deserializes a soft-entry record.
func decodeSoftRecord(data []byte) (*softEntry, error) {
	d := &decBuf{buf: data}
	ver, err := d.readByte()
	if err != nil {
		return nil, fmt.Errorf("%w: truncated soft record", ErrBadState)
	}
	if ver != softEncVersion {
		return nil, fmt.Errorf("%w: soft record version %d", ErrBadState, ver)
	}
	e := &softEntry{}
	if e.com, err = d.readCommitment(); err != nil {
		return nil, fmt.Errorf("%w: soft commitment: %w", ErrBadState, err)
	}
	if e.dec.R0, err = d.readBigInt(); err != nil {
		return nil, fmt.Errorf("%w: soft decommit: %w", ErrBadState, err)
	}
	if e.dec.R1, err = d.readBigInt(); err != nil {
		return nil, fmt.Errorf("%w: soft decommit: %w", ErrBadState, err)
	}
	if d.off != len(d.buf) {
		return nil, fmt.Errorf("%w: %d trailing bytes in soft record", ErrBadState, len(d.buf)-d.off)
	}
	return e, nil
}
