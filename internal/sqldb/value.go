// Package sqldb implements the relational substrate CEDAR executes
// verification queries against. It is a self-contained, in-memory SQL engine
// (the paper uses DuckDB) with a lexer, recursive-descent parser, and a
// tree-walking evaluator covering the query surface exercised by the paper's
// workloads: aggregates, WHERE predicates, inner joins, GROUP BY/HAVING,
// scalar and IN subqueries (including correlated ones), ORDER BY/LIMIT,
// arithmetic, CAST, and a set of scalar functions.
package sqldb

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Kind enumerates the runtime types of SQL values.
type Kind int

// Value kinds. Integers and floats are distinct so that COUNT stays integral
// while AVG produces floats, matching conventional SQL output formatting.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindText
	KindBool
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "REAL"
	case KindText:
		return "TEXT"
	case KindBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Value is a dynamically typed SQL cell.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
}

// Null returns the SQL NULL value.
func Null() Value { return Value{kind: KindNull} }

// Int returns an integer value.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a floating-point value.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// Text returns a string value.
func Text(v string) Value { return Value{kind: KindText, s: v} }

// Bool returns a boolean value.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Kind returns the value's runtime kind.
func (v Value) Kind() Kind { return v.kind }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.kind == KindNull }

// IsNumeric reports whether the value is an integer or float.
func (v Value) IsNumeric() bool { return v.kind == KindInt || v.kind == KindFloat }

// AsFloat converts numeric and boolean values to float64. ok is false for
// NULL and for text that does not parse as a number.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt:
		return float64(v.i), true
	case KindFloat:
		return v.f, true
	case KindBool:
		if v.b {
			return 1, true
		}
		return 0, true
	case KindText:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	default:
		return 0, false
	}
}

// AsInt converts the value to int64 when it is integral. ok is false for
// NULL, non-numeric text, and floats with a fractional part.
func (v Value) AsInt() (int64, bool) {
	switch v.kind {
	case KindInt:
		return v.i, true
	case KindFloat:
		if v.f == math.Trunc(v.f) {
			return int64(v.f), true
		}
		return 0, false
	case KindText:
		i, err := strconv.ParseInt(strings.TrimSpace(v.s), 10, 64)
		if err != nil {
			return 0, false
		}
		return i, true
	default:
		return 0, false
	}
}

// AsBool interprets the value as a SQL condition: booleans directly,
// numbers as non-zero, NULL as false (unknown).
func (v Value) AsBool() bool {
	switch v.kind {
	case KindBool:
		return v.b
	case KindInt:
		return v.i != 0
	case KindFloat:
		return v.f != 0
	default:
		return false
	}
}

// Text returns the textual content of a TEXT value, or the formatted form
// of other kinds.
func (v Value) Text() string {
	if v.kind == KindText {
		return v.s
	}
	return v.String()
}

// String renders the value the way result cells are surfaced to the
// verification pipeline and the agent observation channel.
func (v Value) String() string {
	switch v.kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		s := strconv.FormatFloat(v.f, 'f', -1, 64)
		return s
	case KindText:
		return v.s
	case KindBool:
		if v.b {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Equal reports SQL equality between two values with numeric coercion and
// case-sensitive text comparison. Comparisons involving NULL are false.
func (v Value) Equal(o Value) bool {
	c, ok := v.Compare(o)
	return ok && c == 0
}

// Compare orders two values: -1, 0, or +1. Numeric values compare by value
// across int/float; text compares lexically; booleans false<true. ok is
// false when either side is NULL or the kinds are incomparable.
func (v Value) Compare(o Value) (int, bool) {
	if v.IsNull() || o.IsNull() {
		return 0, false
	}
	if v.IsNumeric() && o.IsNumeric() {
		a, _ := v.AsFloat()
		b, _ := o.AsFloat()
		switch {
		case a < b:
			return -1, true
		case a > b:
			return 1, true
		default:
			return 0, true
		}
	}
	if v.kind == KindText && o.kind == KindText {
		return strings.Compare(v.s, o.s), true
	}
	if v.kind == KindBool && o.kind == KindBool {
		switch {
		case v.b == o.b:
			return 0, true
		case !v.b:
			return -1, true
		default:
			return 1, true
		}
	}
	// Mixed text/number: attempt numeric coercion of the text side, the
	// permissive behaviour of engines like SQLite that claim queries rely
	// on when CSV columns are typed as text.
	if v.IsNumeric() && o.kind == KindText {
		if f, ok := o.AsFloat(); ok {
			return v.Compare(Float(f))
		}
	}
	if v.kind == KindText && o.IsNumeric() {
		if f, ok := v.AsFloat(); ok {
			return Float(f).Compare(o)
		}
	}
	return 0, false
}

// key returns a map key identifying the value for GROUP BY and DISTINCT.
func (v Value) key() string {
	switch v.kind {
	case KindNull:
		return "\x00N"
	case KindInt:
		return "\x00I" + strconv.FormatInt(v.i, 10)
	case KindFloat:
		if v.f == math.Trunc(v.f) && math.Abs(v.f) < 1e15 {
			// Integral floats group with equal ints.
			return "\x00I" + strconv.FormatInt(int64(v.f), 10)
		}
		return "\x00F" + strconv.FormatFloat(v.f, 'b', -1, 64)
	case KindText:
		return "\x00T" + v.s
	case KindBool:
		if v.b {
			return "\x00B1"
		}
		return "\x00B0"
	default:
		return "\x00?"
	}
}

// Vec is a typed column vector: the unit of data the vectorized executor
// moves between operators. Columns whose values are uniformly integral or
// floating-point are stored unboxed (with a parallel null mask); columns
// that mix kinds demote to generic Value storage on first mismatch. All
// accessors reconstruct exactly the Value a row-at-a-time evaluator would
// have seen, so the two engines cannot diverge through storage.
type Vec struct {
	kind   Kind    // KindInt or KindFloat for unboxed storage, KindNull for generic
	ints   []int64 // unboxed values when kind == KindInt
	floats []float64
	nulls  []bool  // parallel null mask for unboxed storage
	any    []Value // generic storage when kind == KindNull
}

// NewVec returns an empty vector with storage hinted by kind (pass KindNull
// for generic storage) and capacity for n values.
func NewVec(kind Kind, n int) *Vec {
	switch kind {
	case KindInt:
		return &Vec{kind: KindInt, ints: make([]int64, 0, n), nulls: make([]bool, 0, n)}
	case KindFloat:
		return &Vec{kind: KindFloat, floats: make([]float64, 0, n), nulls: make([]bool, 0, n)}
	default:
		return &Vec{any: make([]Value, 0, n)}
	}
}

// Len returns the number of values in the vector.
func (v *Vec) Len() int {
	if v.kind == KindNull {
		return len(v.any)
	}
	return len(v.nulls)
}

// At returns the i'th value.
func (v *Vec) At(i int) Value {
	switch v.kind {
	case KindInt:
		if v.nulls[i] {
			return Null()
		}
		return Int(v.ints[i])
	case KindFloat:
		if v.nulls[i] {
			return Null()
		}
		return Float(v.floats[i])
	default:
		return v.any[i]
	}
}

// Append adds a value, demoting the vector to generic storage when the
// value's kind does not match the unboxed storage kind.
func (v *Vec) Append(val Value) {
	switch v.kind {
	case KindInt:
		switch val.kind {
		case KindInt:
			v.ints = append(v.ints, val.i)
			v.nulls = append(v.nulls, false)
			return
		case KindNull:
			v.ints = append(v.ints, 0)
			v.nulls = append(v.nulls, true)
			return
		}
	case KindFloat:
		switch val.kind {
		case KindFloat:
			v.floats = append(v.floats, val.f)
			v.nulls = append(v.nulls, false)
			return
		case KindNull:
			v.floats = append(v.floats, 0)
			v.nulls = append(v.nulls, true)
			return
		}
	default:
		v.any = append(v.any, val)
		return
	}
	v.demote()
	v.any = append(v.any, val)
}

// demote rewrites unboxed storage as generic Values.
func (v *Vec) demote() {
	n := v.Len()
	any := make([]Value, 0, n+1)
	for i := 0; i < n; i++ {
		any = append(any, v.At(i))
	}
	v.kind, v.ints, v.floats, v.nulls, v.any = KindNull, nil, nil, nil, any
}

// Gather returns a new vector holding v[idx[0]], v[idx[1]], ... A negative
// index yields NULL (used for the padding side of outer joins).
func (v *Vec) Gather(idx []int) *Vec {
	out := &Vec{kind: v.kind}
	switch v.kind {
	case KindInt:
		out.ints, out.nulls = make([]int64, len(idx)), make([]bool, len(idx))
		for k, i := range idx {
			if i < 0 || v.nulls[i] {
				out.nulls[k] = true
			} else {
				out.ints[k] = v.ints[i]
			}
		}
	case KindFloat:
		out.floats, out.nulls = make([]float64, len(idx)), make([]bool, len(idx))
		for k, i := range idx {
			if i < 0 || v.nulls[i] {
				out.nulls[k] = true
			} else {
				out.floats[k] = v.floats[i]
			}
		}
	default:
		out.any = make([]Value, len(idx)) // the zero Value is NULL
		for k, i := range idx {
			if i >= 0 {
				out.any[k] = v.any[i]
			}
		}
	}
	return out
}

// slice returns a zero-copy view of v[start:end]. Capacities are capped at
// the view's end, so an append to the view reallocates instead of writing
// into v's storage.
func (v *Vec) slice(start, end int) *Vec {
	switch v.kind {
	case KindInt:
		return &Vec{kind: KindInt, ints: v.ints[start:end:end], nulls: v.nulls[start:end:end]}
	case KindFloat:
		return &Vec{kind: KindFloat, floats: v.floats[start:end:end], nulls: v.nulls[start:end:end]}
	default:
		return &Vec{any: v.any[start:end:end]}
	}
}

// IsNullAt reports whether the i'th value is NULL without boxing it.
func (v *Vec) IsNullAt(i int) bool {
	if v.kind == KindNull {
		return v.any[i].IsNull()
	}
	return v.nulls[i]
}

// appendKey appends the i'th value's grouping key (Value.key) to dst. The
// unboxed integer path mirrors Value.key's "\x00I" + decimal form directly.
func (v *Vec) appendKey(i int, dst []byte) []byte {
	if v.kind == KindInt && !v.nulls[i] {
		dst = append(dst, 0, 'I')
		return strconv.AppendInt(dst, v.ints[i], 10)
	}
	return append(dst, v.At(i).key()...)
}

// inferLiteral converts raw text (e.g. from CSV ingestion) to the most
// specific value kind: integer, float, then text. Empty strings become NULL.
func inferLiteral(raw string) Value {
	t := strings.TrimSpace(raw)
	if t == "" {
		return Null()
	}
	if i, err := strconv.ParseInt(t, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(t, 64); err == nil {
		return Float(f)
	}
	return Text(raw)
}
