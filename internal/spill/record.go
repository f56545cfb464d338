package spill

import (
	"encoding/binary"
	"errors"
	"fmt"

	"supmr/internal/kv"
)

// Record framing — the one encoding of a key/value pair shared by spill
// run files, memo cache entries and shuffle frame payloads:
//
//	uvarint keyLen | keyLen bytes | uvarint valLen | valLen bytes
//
// Key and value bytes are the type's Codec encoding.

// ErrBadRecord reports a record whose length prefixes are malformed or
// run past the end of the buffer.
var ErrBadRecord = errors.New("spill: malformed record")

// AppendRecord appends one framed record to dst.
func AppendRecord(dst, key, val []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(key)))
	dst = append(dst, key...)
	dst = binary.AppendUvarint(dst, uint64(len(val)))
	return append(dst, val...)
}

// ReadRecord parses the next framed record from p, returning the key
// and value (views into p) and the bytes after the record. Framing
// damage returns an error wrapping ErrBadRecord.
func ReadRecord(p []byte) (key, val, rest []byte, err error) {
	for i := 0; i < 2; i++ {
		l, n := binary.Uvarint(p)
		if n <= 0 || l > uint64(len(p)-n) {
			return nil, nil, nil, fmt.Errorf("%w: field %d", ErrBadRecord, i)
		}
		field := p[n : n+int(l)]
		p = p[n+int(l):]
		if i == 0 {
			key = field
		} else {
			val = field
		}
	}
	return key, val, p, nil
}

// Records frames whole K/V pairs with the type's codecs. It keeps
// scratch buffers for encoding, so one Records serves one goroutine at
// a time; Decode and DecodeAll touch no scratch state.
type Records[K comparable, V any] struct {
	kc         Codec[K]
	vc         Codec[V]
	kbuf, vbuf []byte
}

// NewRecords resolves the key and value codecs, failing when either
// type has none.
func NewRecords[K comparable, V any]() (*Records[K, V], error) {
	kc, err := CodecFor[K]()
	if err != nil {
		return nil, fmt.Errorf("key: %w", err)
	}
	vc, err := CodecFor[V]()
	if err != nil {
		return nil, fmt.Errorf("value: %w", err)
	}
	return &Records[K, V]{kc: kc, vc: vc}, nil
}

// Encode returns p's encoded key and value in scratch buffers that stay
// valid until the next Encode or Append.
func (r *Records[K, V]) Encode(p kv.Pair[K, V]) (key, val []byte) {
	r.kbuf = r.kc.Append(r.kbuf[:0], p.Key)
	r.vbuf = r.vc.Append(r.vbuf[:0], p.Val)
	return r.kbuf, r.vbuf
}

// Append appends p to dst as one framed record.
func (r *Records[K, V]) Append(dst []byte, p kv.Pair[K, V]) []byte {
	key, val := r.Encode(p)
	return AppendRecord(dst, key, val)
}

// Decode rebuilds a pair from one record's key and value bytes.
func (r *Records[K, V]) Decode(key, val []byte) (kv.Pair[K, V], error) {
	k, err := r.kc.Decode(key)
	if err != nil {
		return kv.Pair[K, V]{}, fmt.Errorf("key: %w", err)
	}
	v, err := r.vc.Decode(val)
	if err != nil {
		return kv.Pair[K, V]{}, fmt.Errorf("value: %w", err)
	}
	return kv.Pair[K, V]{Key: k, Val: v}, nil
}

// DecodeAll decodes a buffer of framed records into pairs, sized for
// the n records the caller expects.
func (r *Records[K, V]) DecodeAll(payload []byte, n int) ([]kv.Pair[K, V], error) {
	pairs := make([]kv.Pair[K, V], 0, n)
	for len(payload) > 0 {
		key, val, rest, err := ReadRecord(payload)
		if err != nil {
			return nil, err
		}
		p, err := r.Decode(key, val)
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, p)
		payload = rest
	}
	return pairs, nil
}
