package relational

import (
	"fmt"
	"strconv"
)

// Kind enumerates the column types supported by the engine. The size-l OS
// workloads (DBLP, TPC-H) only need integers, floats and strings.
type Kind uint8

const (
	// KindInt is a 64-bit signed integer column (also used for all keys).
	KindInt Kind = iota
	// KindFloat is a 64-bit floating point column.
	KindFloat
	// KindString is a variable-length string column.
	KindString
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Value is a single typed cell. Exactly one of the payload fields is
// meaningful, selected by Kind. A struct (rather than interface{}) keeps
// tuples pointer-free and cache-friendly; OSs routinely touch 10^3..10^6
// tuples per query.
type Value struct {
	Kind  Kind
	Int   int64
	Float float64
	Str   string
}

// IntVal returns an integer Value.
func IntVal(v int64) Value { return Value{Kind: KindInt, Int: v} }

// FloatVal returns a float Value.
func FloatVal(v float64) Value { return Value{Kind: KindFloat, Float: v} }

// StrVal returns a string Value.
func StrVal(v string) Value { return Value{Kind: KindString, Str: v} }

// String renders the value for OS output (Examples 4 and 5 in the paper).
func (v Value) String() string {
	if v.Kind == KindString {
		return v.Str
	}
	var b [32]byte
	return string(v.Append(b[:0]))
}

// Append appends the String form of the value to b.
func (v Value) Append(b []byte) []byte {
	switch v.Kind {
	case KindInt:
		return strconv.AppendInt(b, v.Int, 10)
	case KindFloat:
		return strconv.AppendFloat(b, v.Float, 'f', 2, 64)
	case KindString:
		return append(b, v.Str...)
	default:
		return append(b, '?')
	}
}

// Equal reports whether two values are identical in kind and payload.
func (v Value) Equal(o Value) bool {
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case KindInt:
		return v.Int == o.Int
	case KindFloat:
		return v.Float == o.Float
	case KindString:
		return v.Str == o.Str
	}
	return false
}

// Less orders values of the same kind (ints and floats numerically, strings
// lexicographically). It is used by deterministic secondary sorts.
func (v Value) Less(o Value) bool {
	if v.Kind != o.Kind {
		return v.Kind < o.Kind
	}
	switch v.Kind {
	case KindInt:
		return v.Int < o.Int
	case KindFloat:
		return v.Float < o.Float
	case KindString:
		return v.Str < o.Str
	}
	return false
}
