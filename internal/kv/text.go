package kv

import (
	"fmt"
	"strconv"
)

// AppendText appends p rendered as one "key\tvalue\n" output line and
// returns the extended buffer. The bytes equal fmt's "%v\t%v\n" for
// every type: string, int, int64, uint64 and float64 keys and values
// take an allocation-free typed path, anything else (slices, structs,
// Stringers, named types) falls back to fmt.Append.
//
// p is a pointer so callers can render in place (&pairs[i]); a pair
// copied out of a range loop would be boxed on every call.
func AppendText[K, V any](dst []byte, p *Pair[K, V]) []byte {
	dst = appendValue(dst, &p.Key)
	dst = append(dst, '\t')
	dst = appendValue(dst, &p.Val)
	return append(dst, '\n')
}

// appendValue appends *v as %v renders it. It switches on the pointer,
// not the value, so the fast cases box nothing.
func appendValue[T any](dst []byte, v *T) []byte {
	switch x := any(v).(type) {
	case *string:
		return append(dst, *x...)
	case *int:
		return strconv.AppendInt(dst, int64(*x), 10)
	case *int64:
		return strconv.AppendInt(dst, *x, 10)
	case *uint64:
		return strconv.AppendUint(dst, *x, 10)
	case *float64:
		// %v on a float64 is %g at the shortest round-trip precision,
		// which is strconv's 'g', -1 (NaN, ±Inf and -0 included).
		return strconv.AppendFloat(dst, *x, 'g', -1, 64)
	}
	return fmt.Append(dst, *v)
}
