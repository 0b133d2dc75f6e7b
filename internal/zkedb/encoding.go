package zkedb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/big"

	"desword/internal/group"
	"desword/internal/mercurial"
	"desword/internal/qmercurial"
	"desword/internal/rsavc"
)

// This file provides a compact binary proof encoding. The paper's Table II
// reports ownership / non-ownership proof sizes in kilobytes; JSON would
// inflate them ~2.5× with hex and field names, so sizes are accounted (and
// proofs shipped over TCP) in this format.

// ErrBadEncoding reports a malformed binary proof.
var ErrBadEncoding = errors.New("zkedb: malformed proof encoding")

const (
	levelFlagHard byte = 1
	levelFlagSoft byte = 2
)

// encBuf accumulates an encoding. The first shape the format cannot carry
// faithfully sticks in err and aborts MarshalBinary.
type encBuf struct {
	buf []byte
	err error
}

func (e *encBuf) writeByte(b byte) { e.buf = append(e.buf, b) }

func (e *encBuf) writeUvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

func (e *encBuf) writeBytes(b []byte) {
	e.writeUvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// writeBigInt writes x's magnitude. The decoder reads back a non-negative,
// non-nil integer, so nil (which would come back as 0) and negative values
// (which would come back as |x|) are refused rather than silently changed.
func (e *encBuf) writeBigInt(x *big.Int) {
	switch {
	case e.err != nil:
	case x == nil:
		e.err = errors.New("nil integer")
	case x.Sign() < 0:
		e.err = errors.New("negative integer")
	default:
		e.writeBytes(x.Bytes())
	}
}

func (e *encBuf) writeCommitment(c mercurial.Commitment) {
	e.writeBytes(c.C0.Bytes())
	e.writeBytes(c.C1.Bytes())
}

type decBuf struct {
	buf []byte
	off int
}

func (d *decBuf) readByte() (byte, error) {
	if d.off >= len(d.buf) {
		return 0, ErrBadEncoding
	}
	b := d.buf[d.off]
	d.off++
	return b, nil
}

func (d *decBuf) readUvarint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, ErrBadEncoding
	}
	d.off += n
	return v, nil
}

func (d *decBuf) readBytes() ([]byte, error) {
	n, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(len(d.buf)-d.off) {
		return nil, ErrBadEncoding
	}
	out := make([]byte, n)
	copy(out, d.buf[d.off:d.off+int(n)])
	d.off += int(n)
	return out, nil
}

func (d *decBuf) readBigInt() (*big.Int, error) {
	b, err := d.readBytes()
	if err != nil {
		return nil, err
	}
	return new(big.Int).SetBytes(b), nil
}

func (d *decBuf) readCommitment() (mercurial.Commitment, error) {
	grp := group.P256()
	b0, err := d.readBytes()
	if err != nil {
		return mercurial.Commitment{}, err
	}
	c0, err := grp.DecodePoint(b0)
	if err != nil {
		return mercurial.Commitment{}, fmt.Errorf("%w: %w", ErrBadEncoding, err)
	}
	b1, err := d.readBytes()
	if err != nil {
		return mercurial.Commitment{}, err
	}
	c1, err := grp.DecodePoint(b1)
	if err != nil {
		return mercurial.Commitment{}, fmt.Errorf("%w: %w", ErrBadEncoding, err)
	}
	return mercurial.Commitment{C0: c0, C1: c1}, nil
}

// MarshalBinary encodes the proof compactly. The encoding is faithful: the
// bytes decode (UnmarshalBinary) to a proof equal to p, up to an empty Value
// reading back as nil. Shapes it cannot carry that way are errors: an
// unknown kind, a nil or negative integer, and a level or leaf carrying both
// a hard and a soft opening, or neither.
func (p *Proof) MarshalBinary() ([]byte, error) {
	if p.Kind != ProofOwnership && p.Kind != ProofNonOwnership {
		return nil, fmt.Errorf("zkedb: encoding proof: unknown kind %d", p.Kind)
	}
	var e encBuf
	e.writeByte(byte(p.Kind))
	e.writeBytes(p.Value)
	e.writeUvarint(uint64(len(p.Levels)))
	for i, lo := range p.Levels {
		switch {
		case lo.Hard != nil && lo.Soft != nil:
			return nil, fmt.Errorf("zkedb: encoding proof: level %d has both a hard and a soft opening", i)
		case lo.Hard != nil:
			e.writeByte(levelFlagHard)
			e.writeUvarint(uint64(lo.Hard.Slot))
			e.writeBigInt(lo.Hard.Message)
			e.writeBigInt(lo.Hard.V)
			e.writeBigInt(lo.Hard.Witness.Lambda)
			e.writeBigInt(lo.Hard.MCOpen.M)
			e.writeBigInt(lo.Hard.MCOpen.R0)
			e.writeBigInt(lo.Hard.MCOpen.R1)
		case lo.Soft != nil:
			e.writeByte(levelFlagSoft)
			e.writeUvarint(uint64(lo.Soft.Slot))
			e.writeBigInt(lo.Soft.Message)
			e.writeBigInt(lo.Soft.V)
			e.writeBigInt(lo.Soft.Witness.Lambda)
			e.writeBigInt(lo.Soft.MCTease.M)
			e.writeBigInt(lo.Soft.MCTease.Tau)
		default:
			return nil, fmt.Errorf("zkedb: level %d has no opening", i)
		}
		e.writeCommitment(lo.Child)
		if e.err != nil {
			return nil, fmt.Errorf("zkedb: encoding proof: level %d: %w", i, e.err)
		}
	}
	switch {
	case p.LeafHard != nil && p.LeafTease != nil:
		return nil, errors.New("zkedb: encoding proof: leaf has both a hard opening and a tease")
	case p.LeafHard != nil:
		e.writeByte(levelFlagHard)
		e.writeBigInt(p.LeafHard.M)
		e.writeBigInt(p.LeafHard.R0)
		e.writeBigInt(p.LeafHard.R1)
	case p.LeafTease != nil:
		e.writeByte(levelFlagSoft)
		e.writeBigInt(p.LeafTease.M)
		e.writeBigInt(p.LeafTease.Tau)
	default:
		return nil, errors.New("zkedb: proof missing leaf opening")
	}
	if e.err != nil {
		return nil, fmt.Errorf("zkedb: encoding proof: leaf: %w", e.err)
	}
	return e.buf, nil
}

// UnmarshalBinary decodes a proof produced by MarshalBinary.
func (p *Proof) UnmarshalBinary(data []byte) error {
	d := &decBuf{buf: data}
	kind, err := d.readByte()
	if err != nil {
		return err
	}
	p.Kind = ProofKind(kind)
	if p.Kind != ProofOwnership && p.Kind != ProofNonOwnership {
		return fmt.Errorf("%w: kind %d", ErrBadEncoding, kind)
	}
	if p.Value, err = d.readBytes(); err != nil {
		return err
	}
	if len(p.Value) == 0 {
		p.Value = nil
	}
	nLevels, err := d.readUvarint()
	if err != nil {
		return err
	}
	if nLevels > 1<<16 {
		return fmt.Errorf("%w: implausible level count %d", ErrBadEncoding, nLevels)
	}
	p.Levels = make([]LevelOpening, 0, nLevels)
	for i := uint64(0); i < nLevels; i++ {
		flag, err := d.readByte()
		if err != nil {
			return err
		}
		var lo LevelOpening
		switch flag {
		case levelFlagHard:
			op := &qmercurial.HardOpening{}
			slot, err := d.readUvarint()
			if err != nil {
				return err
			}
			op.Slot = int(slot)
			if op.Message, err = d.readBigInt(); err != nil {
				return err
			}
			if op.V, err = d.readBigInt(); err != nil {
				return err
			}
			var lambda *big.Int
			if lambda, err = d.readBigInt(); err != nil {
				return err
			}
			op.Witness = rsavc.Witness{Lambda: lambda}
			if op.MCOpen.M, err = d.readBigInt(); err != nil {
				return err
			}
			if op.MCOpen.R0, err = d.readBigInt(); err != nil {
				return err
			}
			if op.MCOpen.R1, err = d.readBigInt(); err != nil {
				return err
			}
			lo.Hard = op
		case levelFlagSoft:
			op := &qmercurial.SoftOpening{}
			slot, err := d.readUvarint()
			if err != nil {
				return err
			}
			op.Slot = int(slot)
			if op.Message, err = d.readBigInt(); err != nil {
				return err
			}
			if op.V, err = d.readBigInt(); err != nil {
				return err
			}
			var lambda *big.Int
			if lambda, err = d.readBigInt(); err != nil {
				return err
			}
			op.Witness = rsavc.Witness{Lambda: lambda}
			if op.MCTease.M, err = d.readBigInt(); err != nil {
				return err
			}
			if op.MCTease.Tau, err = d.readBigInt(); err != nil {
				return err
			}
			lo.Soft = op
		default:
			return fmt.Errorf("%w: level flag %d", ErrBadEncoding, flag)
		}
		if lo.Child, err = d.readCommitment(); err != nil {
			return err
		}
		p.Levels = append(p.Levels, lo)
	}
	flag, err := d.readByte()
	if err != nil {
		return err
	}
	switch flag {
	case levelFlagHard:
		op := &mercurial.HardOpening{}
		if op.M, err = d.readBigInt(); err != nil {
			return err
		}
		if op.R0, err = d.readBigInt(); err != nil {
			return err
		}
		if op.R1, err = d.readBigInt(); err != nil {
			return err
		}
		p.LeafHard = op
	case levelFlagSoft:
		ts := &mercurial.Tease{}
		if ts.M, err = d.readBigInt(); err != nil {
			return err
		}
		if ts.Tau, err = d.readBigInt(); err != nil {
			return err
		}
		p.LeafTease = ts
	default:
		return fmt.Errorf("%w: leaf flag %d", ErrBadEncoding, flag)
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadEncoding, len(d.buf)-d.off)
	}
	return nil
}

// Size returns the compact encoded size of the proof in bytes; it is the
// quantity Table II reports.
func (p *Proof) Size() (int, error) {
	data, err := p.MarshalBinary()
	if err != nil {
		return 0, err
	}
	return len(data), nil
}
