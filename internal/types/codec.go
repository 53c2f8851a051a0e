package types

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Binary row codec used by the write-ahead log and checkpoints.
//
// Layout per value: 1 kind byte, then a kind-dependent payload:
//
//	NULL                      (nothing)
//	INT/BOOL/TIME             8-byte little-endian int64
//	FLOAT                     8-byte little-endian IEEE-754 bits
//	VARCHAR                   uvarint length + bytes
//
// A row is a uvarint column count followed by the encoded values.

// AppendValue appends the binary encoding of v to dst.
func AppendValue(dst []byte, v Value) []byte {
	dst = append(dst, byte(v.K))
	switch v.K {
	case KindNull:
	case KindInt, KindBool, KindTime, KindFloat: // a FLOAT's word is its IEEE-754 bits
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v.Int))
		dst = append(dst, buf[:]...)
	case KindString:
		dst = binary.AppendUvarint(dst, uint64(len(v.Str)))
		dst = append(dst, v.Str...)
	}
	return dst
}

// DecodeValue decodes one value from b, returning the value and the number
// of bytes consumed.
func DecodeValue(b []byte) (Value, int, error) {
	if len(b) == 0 {
		return Null, 0, io.ErrUnexpectedEOF
	}
	k := Kind(b[0])
	switch k {
	case KindNull:
		return Null, 1, nil
	case KindInt, KindBool, KindTime, KindFloat:
		if len(b) < 9 {
			return Null, 0, io.ErrUnexpectedEOF
		}
		return Value{K: k, Int: int64(binary.LittleEndian.Uint64(b[1:9]))}, 9, nil
	case KindString:
		l, n := binary.Uvarint(b[1:])
		if n <= 0 {
			return Null, 0, io.ErrUnexpectedEOF
		}
		start := 1 + n
		end := start + int(l)
		if end > len(b) {
			return Null, 0, io.ErrUnexpectedEOF
		}
		return NewString(string(b[start:end])), end, nil
	default:
		return Null, 0, fmt.Errorf("corrupt value encoding: kind byte %d", b[0])
	}
}

// AppendRow appends the binary encoding of row r to dst.
func AppendRow(dst []byte, r Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(r)))
	for _, v := range r {
		dst = AppendValue(dst, v)
	}
	return dst
}

// DecodeRow decodes one row from b, returning the row and bytes consumed.
func DecodeRow(b []byte) (Row, int, error) {
	n, used := binary.Uvarint(b)
	if used <= 0 {
		return nil, 0, io.ErrUnexpectedEOF
	}
	off := used
	row := make(Row, 0, n)
	for i := uint64(0); i < n; i++ {
		v, c, err := DecodeValue(b[off:])
		if err != nil {
			return nil, 0, err
		}
		row = append(row, v)
		off += c
	}
	return row, off, nil
}

// KeyHash returns a 64-bit hash of a composite key, chaining the
// coercion-consistent per-value hashes (Value.Hash) through an FNV-style
// mix. It is the hash the shard router partitions primary keys on: equal
// keys — including INT/FLOAT pairs that compare equal under coercion —
// hash identically, so a row inserted with pk=1 and a lookup with pk=1.0
// land on the same shard.
func KeyHash(vals ...Value) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range vals {
		h ^= v.Hash()
		h *= fnvPrime64
	}
	return h
}
