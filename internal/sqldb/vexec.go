package sqldb

import (
	"errors"
	"fmt"
	"math"
	"strconv"
)

// vexec.go is the vectorized runtime for plans produced by compilePlan: data
// flows through the operator tree as column batches (vbatch) instead of one
// row at a time. Scans read each table's column image (catalog.go) in place
// and apply pushed-down filters chunk by chunk over views of it; hash joins
// produce index pair lists and gather columns instead of materializing
// joined rows; aggregates fold typed vectors directly.
// Every scalar kernel either reuses the row engine's functions (applyBinary,
// applyScalarFunc, castValue, ...) or replicates their exact numeric
// behaviour — including the float64 coercion Value.Compare applies to
// integers — so that when vectorized execution succeeds its result is
// bit-identical to the row engine's. When it fails, callers fall back to the
// row engine, which reproduces the canonical error.

// errPlanStale reports that the catalog changed after the plan was compiled.
// Executors treat it like any vectorized-execution error: fall back to the
// row engine, which binds against the live catalog.
var errPlanStale = errors.New("sqldb: plan compiled against stale catalog")

// ExecVec executes a parsed statement on the vectorized engine without row
// fallback. It is the entry point the differential test harness drives; the
// production path (Query) instead runs cached plans with fallback.
func ExecVec(db *Database, stmt *SelectStmt) (*Result, error) {
	return ExecVecBatch(db, stmt, 0)
}

// ExecVecBatch is ExecVec with an explicit scan chunk size (<= 0 selects
// DefaultBatchSize); benchmarks use it to sweep batch sizes.
func ExecVecBatch(db *Database, stmt *SelectStmt, batch int) (*Result, error) {
	p := compilePlan(db, stmt)
	if p == nil {
		return nil, fmt.Errorf("%w: statement is not vectorizable", ErrUnsupported)
	}
	if batch > 0 {
		p.batch = batch
	}
	return p.run(db)
}

// vbatch is a horizontal slice of the working set in columnar form. cols is
// indexed by working-set slot (the plan's full bind layout); slots the plan
// does not need are nil.
type vbatch struct {
	n    int
	cols []*Vec
}

// vecCtx carries per-execution state: the row-engine executor used by
// fallback nodes and subqueries, and memos for evaluate-once subqueries and
// aggregate argument vectors. A fresh ctx per run keeps the shared cached
// plan immutable and race-free.
type vecCtx struct {
	ex    *executor
	binds []colBind

	subs map[interface{}]*subMemo
	aggs map[*gagg]*Vec
}

type subMemo struct {
	res *Result
	err error
}

// subResult executes an uncorrelated subquery at most once per statement
// execution, keyed by the plan node. Nodes call it only when at least one
// row reaches them, mirroring the row engine's reachability: a subquery the
// row engine never evaluates is never evaluated here either.
func (ctx *vecCtx) subResult(key interface{}, sub *SelectStmt) (*Result, error) {
	if m, ok := ctx.subs[key]; ok {
		return m.res, m.err
	}
	res, err := ctx.ex.execSelect(sub, nil)
	if ctx.subs == nil {
		ctx.subs = make(map[interface{}]*subMemo)
	}
	ctx.subs[key] = &subMemo{res: res, err: err}
	return res, err
}

// run executes the plan against db. Any returned error means "the vectorized
// engine cannot produce the row engine's result here" — the caller falls
// back; it never means the query itself is known to fail.
func (p *vecPlan) run(db *Database) (*Result, error) {
	entries, ver := db.snapshotTables(p.names)
	if ver != p.version {
		return nil, errPlanStale
	}
	for i, e := range entries {
		// A table whose row count no longer matches its image was mutated
		// after registration: run it like a stale plan, so the row engine
		// reads the live rows and the old image is never served.
		if e == nil || len(e.t.Columns) != p.scans[i].n || len(e.t.Rows) != e.image.rows {
			return nil, errPlanStale
		}
	}

	ctx := &vecCtx{ex: &executor{db: db}, binds: p.binds}

	b, err := p.buildBatch(ctx, entries)
	if err != nil {
		return nil, err
	}
	for _, f := range p.residual {
		b, err = filterBatch(ctx, b, f)
		if err != nil {
			return nil, err
		}
	}
	if p.aggregated {
		return p.runAgg(ctx, b)
	}
	return p.runRows(ctx, b)
}

// buildBatch scans and joins the FROM clause into one batch.
func (p *vecPlan) buildBatch(ctx *vecCtx, entries []*catalogEntry) (*vbatch, error) {
	if len(p.scans) == 0 {
		return &vbatch{cols: make([]*Vec, 0)}, nil
	}
	left, err := p.scanBatch(ctx, 0, entries[0].image)
	if err != nil {
		return nil, err
	}
	for ji := range p.joins {
		right, err := p.scanBatch(ctx, ji+1, entries[ji+1].image)
		if err != nil {
			return nil, err
		}
		left, err = p.joinBatch(ctx, left, right, ji)
		if err != nil {
			return nil, err
		}
	}
	return left, nil
}

// scanBatch reads the needed slots of scan si straight from the table's
// column image: with no pushed-down filter the image vectors are the batch.
// Otherwise the filters run over chunks of p.batch rows — zero-copy views of
// the image — and only the rows that pass are gathered, so filtered rows
// never reach join or aggregation operators. No operator writes into a
// batch's vectors, which is what makes handing out the image safe.
func (p *vecPlan) scanBatch(ctx *vecCtx, si int, img *tableImage) (*vbatch, error) {
	s := &p.scans[si]
	all := &vbatch{n: img.rows, cols: make([]*Vec, len(p.binds))}
	for c := 0; c < s.n; c++ {
		if p.needed[s.base+c] {
			all.cols[s.base+c] = img.cols[c]
		}
	}
	if len(s.pushed) == 0 {
		return all, nil
	}
	var sel []int
	for start := 0; start < all.n; start += p.batch {
		end := min(start+p.batch, all.n)
		chunk := all
		if end-start < all.n {
			chunk = all.view(start, end)
		}
		idx, err := selectPushed(ctx, chunk, s.pushed)
		if err != nil {
			return nil, err
		}
		if start == 0 {
			sel = idx
			continue
		}
		for _, i := range idx {
			sel = append(sel, start+i)
		}
	}
	if len(sel) == all.n {
		return all, nil
	}
	return gatherBatch(all, sel), nil
}

// view returns rows [start, end) of the batch as zero-copy vector views.
func (b *vbatch) view(start, end int) *vbatch {
	out := &vbatch{n: end - start, cols: make([]*Vec, len(b.cols))}
	for slot, cv := range b.cols {
		if cv != nil {
			out.cols[slot] = cv.slice(start, end)
		}
	}
	return out
}

// vecKindHint selects unboxed storage for columns whose observed type is
// uniformly integral or floating-point.
func vecKindHint(k Kind) Kind {
	if k == KindInt || k == KindFloat {
		return k
	}
	return KindNull
}

// selectPushed returns the indices of b's rows that pass every pushed-down
// filter. Pushed filters are error-free (safeExpr), so each one narrows the
// previous one's survivors in place of gathering a new batch between them.
func selectPushed(ctx *vecCtx, b *vbatch, fs []vexpr) ([]int, error) {
	var sel []int
	for _, f := range fs {
		var err error
		if sel, err = selectRows(ctx, b, f, sel); err != nil {
			return nil, err
		}
		if len(sel) == 0 {
			break
		}
	}
	return sel, nil
}

// selectRows narrows cand — row indices of b in ascending order, nil meaning
// every row — to the rows for which f is truthy (Value.AsBool, so NULL
// filters out: the row engine's WHERE semantics). A column-literal
// comparison is decided per row without materializing a result vector;
// any other filter is evaluated over the whole batch.
func selectRows(ctx *vecCtx, b *vbatch, f vexpr, cand []int) ([]int, error) {
	if c, ok := f.(*vcmplit); ok {
		return c.selectRows(b, cand), nil
	}
	fv, err := f.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	n := b.n
	if cand != nil {
		n = len(cand)
	}
	idx := make([]int, 0, n)
	for k := 0; k < n; k++ {
		i := k
		if cand != nil {
			i = cand[k]
		}
		if fv.At(i).AsBool() {
			idx = append(idx, i)
		}
	}
	return idx, nil
}

// filterBatch keeps the rows for which f evaluates truthy.
func filterBatch(ctx *vecCtx, b *vbatch, f vexpr) (*vbatch, error) {
	idx, err := selectRows(ctx, b, f, nil)
	if err != nil {
		return nil, err
	}
	if len(idx) == b.n {
		return b, nil
	}
	return gatherBatch(b, idx), nil
}

// gatherBatch builds a new batch keeping the selected row indices; nil
// (unneeded) columns stay nil.
func gatherBatch(b *vbatch, idx []int) *vbatch {
	out := &vbatch{n: len(idx), cols: make([]*Vec, len(b.cols))}
	for slot, cv := range b.cols {
		if cv != nil {
			out.cols[slot] = cv.Gather(idx)
		}
	}
	return out
}

// joinBatch joins the accumulated left batch with the freshly scanned right
// batch under join ji, mirroring joinSets: hash join on the recognized
// equi-join key (built on the right, probed in left order, NULL keys never
// matching, LEFT padding with NULLs), nested loop with per-row ON evaluation
// otherwise.
func (p *vecPlan) joinBatch(ctx *vecCtx, left, right *vbatch, ji int) (*vbatch, error) {
	j := &p.joins[ji]
	var li, ri []int
	if j.hash {
		leftKey, rightKey := left.cols[j.li], right.cols[j.ri]
		if fastJoinKeys(leftKey) && fastJoinKeys(rightKey) {
			// Typed numeric keys: joinKey reduces every numeric to its
			// float64 image (Float(f).key()), under which two values share a
			// key string iff they are equal as float64s — I-form below 1e15,
			// bit-exact F-form above, NaN-bearing vectors excluded by
			// fastJoinKeys. Hashing the float64 directly is therefore
			// match-identical and skips all key-string allocation.
			build := make(map[float64][]int, right.n)
			for i := 0; i < right.n; i++ {
				if rightKey.nulls[i] {
					continue // NULL keys never match in SQL equality
				}
				k := numAt(rightKey, i)
				build[k] = append(build[k], i)
			}
			for i := 0; i < left.n; i++ {
				var matches []int
				if !leftKey.nulls[i] {
					matches = build[numAt(leftKey, i)]
				}
				for _, m := range matches {
					li = append(li, i)
					ri = append(ri, m)
				}
				if len(matches) == 0 && j.kind == "LEFT" {
					li = append(li, i)
					ri = append(ri, -1)
				}
			}
		} else {
			build := make(map[string][]int, right.n)
			var kb []byte
			for i := 0; i < right.n; i++ {
				v := rightKey.At(i)
				if v.IsNull() {
					continue // NULL keys never match in SQL equality
				}
				kb = appendJoinKey(kb[:0], v)
				build[string(kb)] = append(build[string(kb)], i)
			}
			for i := 0; i < left.n; i++ {
				v := leftKey.At(i)
				var matches []int
				if !v.IsNull() {
					kb = appendJoinKey(kb[:0], v)
					matches = build[string(kb)] // alloc-free lookup
				}
				for _, m := range matches {
					li = append(li, i)
					ri = append(ri, m)
				}
				if len(matches) == 0 && j.kind == "LEFT" {
					li = append(li, i)
					ri = append(ri, -1)
				}
			}
		}
	} else {
		// Nested loop: combined rows are rebuilt and the ON predicate runs
		// on the row engine, over exactly the binds visible at this join
		// depth (matching env.lookup's scoping in joinSets).
		rightEnd := p.scans[ji+1].base + p.scans[ji+1].n
		binds := p.binds[:rightEnd]
		row := make([]Value, rightEnd)
		for i := 0; i < left.n; i++ {
			matched := false
			for k := 0; k < right.n; k++ {
				if j.on != nil {
					for s := 0; s < j.leftWidth; s++ {
						row[s] = left.cols[s].At(i)
					}
					for s := j.leftWidth; s < rightEnd; s++ {
						row[s] = right.cols[s].At(k)
					}
					en := &env{binds: binds, row: row}
					v, err := ctx.ex.eval(j.on, en)
					if err != nil {
						return nil, err
					}
					if !v.AsBool() {
						continue
					}
				}
				matched = true
				li = append(li, i)
				ri = append(ri, k)
			}
			if !matched && j.kind == "LEFT" {
				li = append(li, i)
				ri = append(ri, -1)
			}
		}
	}
	out := &vbatch{n: len(li), cols: make([]*Vec, len(p.binds))}
	for slot, cv := range left.cols {
		if cv != nil {
			out.cols[slot] = cv.Gather(li)
		}
	}
	for slot, cv := range right.cols {
		if cv != nil {
			out.cols[slot] = cv.Gather(ri)
		}
	}
	return out, nil
}

// fastJoinKeys reports whether the vector's join keys can hash by float64
// image: typed int vectors always qualify; typed float vectors qualify unless
// they carry a NaN, whose joinKey string (bit-exact F-form) matches other
// identical NaNs while float64 map keys never would.
func fastJoinKeys(v *Vec) bool {
	switch v.kind {
	case KindInt:
		return true
	case KindFloat:
		for _, f := range v.floats {
			if math.IsNaN(f) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// appendJoinKey appends joinKey(v) to dst without forcing a string
// allocation, mirroring joinKey/Float.key exactly: numerics (except BOOL)
// reduce to their float64 image — I-form for integral magnitudes below 1e15,
// bit-exact F-form otherwise — and everything else uses Value.key.
func appendJoinKey(dst []byte, v Value) []byte {
	if f, ok := v.AsFloat(); ok && v.kind != KindBool {
		if f == math.Trunc(f) && math.Abs(f) < 1e15 {
			dst = append(dst, 0, 'I')
			return strconv.AppendInt(dst, int64(f), 10)
		}
		dst = append(dst, 0, 'F')
		return strconv.AppendFloat(dst, f, 'b', -1, 64)
	}
	return append(dst, v.key()...)
}

// runRows projects a non-aggregated batch into result rows and applies the
// shared statement tail.
func (p *vecPlan) runRows(ctx *vecCtx, b *vbatch) (*Result, error) {
	var out []outRow
	if len(p.scans) > 0 {
		cells := make([]*Vec, len(p.itemsV))
		for k, iv := range p.itemsV {
			cv, err := iv.eval(ctx, b)
			if err != nil {
				return nil, err
			}
			cells[k] = cv
		}
		keys := make([]*Vec, len(p.orderV))
		for k, op := range p.orderV {
			if op.cellIdx < 0 {
				kv, err := op.ev.eval(ctx, b)
				if err != nil {
					return nil, err
				}
				keys[k] = kv
			}
		}
		for i := 0; i < b.n; i++ {
			r := outRow{cells: make([]Value, len(cells))}
			for k := range cells {
				r.cells[k] = cells[k].At(i)
			}
			if len(p.orderV) > 0 {
				r.keys = make([]Value, len(p.orderV))
				for k, op := range p.orderV {
					if op.cellIdx >= 0 {
						r.keys[k] = r.cells[op.cellIdx]
					} else {
						r.keys[k] = keys[k].At(i)
					}
				}
			}
			out = append(out, r)
		}
	} else {
		// Table-less SELECT: one row evaluated over no bindings, with no
		// ORDER BY keys — exactly the row engine's FROM-less branch.
		en := &env{}
		row := outRow{}
		for _, it := range p.items {
			v, err := ctx.ex.eval(it.Expr, en)
			if err != nil {
				return nil, err
			}
			row.cells = append(row.cells, v)
		}
		out = []outRow{row}
	}
	return finishSelect(p.stmt, p.cols, out), nil
}

// vgroup is one GROUP BY partition: row indices into the filtered batch.
type vgroup struct {
	b    *vbatch
	rows []int
}

// runAgg partitions the batch, applies HAVING, and projects each surviving
// group.
func (p *vecPlan) runAgg(ctx *vecCtx, b *vbatch) (*Result, error) {
	groups, err := p.partition(ctx, b)
	if err != nil {
		return nil, err
	}
	var out []outRow
	for _, rows := range groups {
		g := &vgroup{b: b, rows: rows}
		if p.havingG != nil {
			hv, err := p.havingG.eval(ctx, g)
			if err != nil {
				return nil, err
			}
			if !hv.AsBool() {
				continue
			}
		}
		row := outRow{}
		for _, ig := range p.itemsG {
			v, err := ig.eval(ctx, g)
			if err != nil {
				return nil, err
			}
			row.cells = append(row.cells, v)
		}
		for _, op := range p.orderG {
			if op.cellIdx >= 0 {
				row.keys = append(row.keys, row.cells[op.cellIdx])
			} else {
				v, err := op.gv.eval(ctx, g)
				if err != nil {
					return nil, err
				}
				row.keys = append(row.keys, v)
			}
		}
		out = append(out, row)
	}
	return finishSelect(p.stmt, p.cols, out), nil
}

// partition groups batch rows by the GROUP BY key vectors in first-appearance
// order. With no GROUP BY the whole batch is one group, even when empty, so
// aggregates over empty inputs still produce a row.
func (p *vecPlan) partition(ctx *vecCtx, b *vbatch) ([][]int, error) {
	if len(p.groupByV) == 0 {
		all := make([]int, b.n)
		for i := range all {
			all[i] = i
		}
		return [][]int{all}, nil
	}
	keyVecs := make([]*Vec, len(p.groupByV))
	for k, gv := range p.groupByV {
		kv, err := gv.eval(ctx, b)
		if err != nil {
			return nil, err
		}
		keyVecs[k] = kv
	}
	index := make(map[string]int)
	var groups [][]int
	var kb []byte
	for i := 0; i < b.n; i++ {
		kb = kb[:0]
		for _, kv := range keyVecs {
			kb = kv.appendKey(i, kb)
		}
		gi, ok := index[string(kb)] // alloc-free lookup
		if !ok {
			gi = len(groups)
			index[string(kb)] = gi
			groups = append(groups, nil)
		}
		groups[gi] = append(groups[gi], i)
	}
	return groups, nil
}

// ---------------------------------------------------------------------------
// Row-context vectorized expressions.

// vexpr evaluates to one value per batch row.
type vexpr interface {
	eval(ctx *vecCtx, b *vbatch) (*Vec, error)
}

// typedNum reports whether the vector has unboxed numeric storage.
func typedNum(v *Vec) bool { return v.kind == KindInt || v.kind == KindFloat }

// numAt reads a typed vector's value as float64, the representation
// Value.Compare and applyArith reduce numerics to.
func numAt(v *Vec, i int) float64 {
	if v.kind == KindInt {
		return float64(v.ints[i])
	}
	return v.floats[i]
}

// mapVec evaluates f element-wise into a generic vector.
func mapVec(n int, f func(i int) (Value, error)) (*Vec, error) {
	out := NewVec(KindNull, n)
	for i := 0; i < n; i++ {
		v, err := f(i)
		if err != nil {
			return nil, err
		}
		out.any = append(out.any, v)
	}
	return out, nil
}

type vlit struct{ val Value }

func (v *vlit) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	out := NewVec(v.val.Kind(), b.n)
	for i := 0; i < b.n; i++ {
		out.Append(v.val)
	}
	return out, nil
}

type vcol struct{ slot int }

func (v *vcol) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	return b.cols[v.slot], nil
}

type vunary struct {
	op string
	x  vexpr
}

func (v *vunary) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	xv, err := v.x.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	return mapVec(b.n, func(i int) (Value, error) { return applyUnary(v.op, xv.At(i)) })
}

// vand and vor evaluate both sides over the whole batch; the row engine
// short-circuits per row, but since its result is Bool(l) op Bool(r) with
// AsBool(NULL)=false, eager evaluation yields identical values — it can only
// add errors, which trigger row fallback.
type vand struct{ l, r vexpr }

func (v *vand) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	lv, err := v.l.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	rv, err := v.r.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	return mapVec(b.n, func(i int) (Value, error) {
		return Bool(lv.At(i).AsBool() && rv.At(i).AsBool()), nil
	})
}

type vor struct{ l, r vexpr }

func (v *vor) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	lv, err := v.l.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	rv, err := v.r.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	return mapVec(b.n, func(i int) (Value, error) {
		return Bool(lv.At(i).AsBool() || rv.At(i).AsBool()), nil
	})
}

type vbin struct {
	op   string
	l, r vexpr
}

func (v *vbin) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	lv, err := v.l.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	rv, err := v.r.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	if typedNum(lv) && typedNum(rv) {
		switch v.op {
		case "=", "<>", "<", "<=", ">", ">=":
			return cmpKernel(v.op, lv, rv, b.n), nil
		case "+", "-", "*", "/", "%":
			return arithKernel(v.op, lv, rv, b.n), nil
		}
	}
	return mapVec(b.n, func(i int) (Value, error) { return applyBinary(v.op, lv.At(i), rv.At(i)) })
}

// cmpKernel compares two typed numeric vectors. Both operands pass through
// float64 — the same (lossy above 2^53) reduction Value.Compare applies — so
// the kernel and the row engine always agree.
func cmpKernel(op string, lv, rv *Vec, n int) *Vec {
	out := NewVec(KindNull, n)
	for i := 0; i < n; i++ {
		if lv.IsNullAt(i) || rv.IsNullAt(i) {
			out.any = append(out.any, Bool(false))
			continue
		}
		out.any = append(out.any, Bool(cmpFloat(op, numAt(lv, i), numAt(rv, i))))
	}
	return out
}

// cmpFloat applies a comparison operator to two float64 operands.
func cmpFloat(op string, a, b float64) bool {
	switch op {
	case "=":
		return a == b
	case "<>":
		return a != b
	case "<":
		return a < b
	case "<=":
		return a <= b
	case ">":
		return a > b
	case ">=":
		return a >= b
	}
	return false
}

// vcmplit compares a column with a literal — the usual shape of a WHERE
// conjunct. selectRows decides it per row straight into a selection list,
// with no broadcast literal vector and no boxed Bool per row. Results match
// vbin's exactly: cmpKernel's float64 rule when the column storage and the
// literal are both numeric, the row engine's applyBinary otherwise.
type vcmplit struct {
	op      string
	slot    int
	lit     Value
	litLeft bool // the literal is the left operand
}

func (c *vcmplit) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	out := NewVec(KindNull, b.n)
	for i := 0; i < b.n; i++ {
		out.any = append(out.any, Bool(false))
	}
	for _, i := range c.selectRows(b, nil) {
		out.any[i] = Bool(true)
	}
	return out, nil
}

// selectRows narrows cand (ascending row indices of b, nil meaning every
// row) to the rows on which the comparison holds.
func (c *vcmplit) selectRows(b *vbatch, cand []int) []int {
	v := b.cols[c.slot]
	n := b.n
	if cand != nil {
		n = len(cand)
	}
	out := make([]int, 0, n)
	if typedNum(v) && c.lit.IsNumeric() {
		lf, _ := c.lit.AsFloat()
		for k := 0; k < n; k++ {
			i := k
			if cand != nil {
				i = cand[k]
			}
			if v.nulls[i] {
				continue
			}
			x, y := numAt(v, i), lf
			if c.litLeft {
				x, y = y, x
			}
			if cmpFloat(c.op, x, y) {
				out = append(out, i)
			}
		}
		return out
	}
	for k := 0; k < n; k++ {
		i := k
		if cand != nil {
			i = cand[k]
		}
		l, r := v.At(i), c.lit
		if c.litLeft {
			l, r = r, l
		}
		// Comparisons never fail in applyBinary: NULL and incomparable
		// operands yield a Bool.
		if res, _ := applyBinary(c.op, l, r); res.AsBool() {
			out = append(out, i)
		}
	}
	return out
}

// arithKernel mirrors applyArith on typed numeric vectors, including its
// int64(float64(x)) round-trips for the both-integer branches and the
// divide-by-zero-yields-NULL rule.
func arithKernel(op string, lv, rv *Vec, n int) *Vec {
	bothInt := lv.kind == KindInt && rv.kind == KindInt
	hint := KindFloat
	if bothInt {
		hint = KindInt
	}
	out := NewVec(hint, n)
	for i := 0; i < n; i++ {
		if lv.IsNullAt(i) || rv.IsNullAt(i) {
			out.Append(Null())
			continue
		}
		lf, rf := numAt(lv, i), numAt(rv, i)
		switch op {
		case "+":
			if bothInt {
				out.Append(Int(int64(lf) + int64(rf)))
			} else {
				out.Append(Float(lf + rf))
			}
		case "-":
			if bothInt {
				out.Append(Int(int64(lf) - int64(rf)))
			} else {
				out.Append(Float(lf - rf))
			}
		case "*":
			if bothInt {
				out.Append(Int(int64(lf) * int64(rf)))
			} else {
				out.Append(Float(lf * rf))
			}
		case "/":
			switch {
			case rf == 0:
				out.Append(Null())
			case bothInt && int64(lf)%int64(rf) == 0:
				out.Append(Int(int64(lf) / int64(rf)))
			default:
				out.Append(Float(lf / rf))
			}
		case "%":
			switch {
			case rf == 0:
				out.Append(Null())
			case bothInt:
				out.Append(Int(int64(lf) % int64(rf)))
			default:
				out.Append(Float(math.Mod(lf, rf)))
			}
		}
	}
	return out
}

type vbetween struct {
	x, lo, hi vexpr
	not       bool
}

func (v *vbetween) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	xv, err := v.x.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	lov, err := v.lo.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	hiv, err := v.hi.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	return mapVec(b.n, func(i int) (Value, error) {
		x := xv.At(i)
		c1, ok1 := x.Compare(lov.At(i))
		c2, ok2 := x.Compare(hiv.At(i))
		res := ok1 && ok2 && c1 >= 0 && c2 <= 0
		if v.not {
			res = !res
		}
		return Bool(res), nil
	})
}

type vin struct {
	x    vexpr
	list []vexpr
	not  bool
}

func (v *vin) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	xv, err := v.x.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	lvs := make([]*Vec, len(v.list))
	for k, le := range v.list {
		lv, err := le.eval(ctx, b)
		if err != nil {
			return nil, err
		}
		lvs[k] = lv
	}
	return mapVec(b.n, func(i int) (Value, error) {
		x := xv.At(i)
		found := false
		for _, lv := range lvs {
			if x.Equal(lv.At(i)) {
				found = true
				break
			}
		}
		if v.not {
			found = !found
		}
		return Bool(found), nil
	})
}

type visnull struct {
	x   vexpr
	not bool
}

func (v *visnull) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	xv, err := v.x.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	return mapVec(b.n, func(i int) (Value, error) {
		res := xv.At(i).IsNull()
		if v.not {
			res = !res
		}
		return Bool(res), nil
	})
}

type vfunc struct {
	name string
	args []vexpr
}

func (v *vfunc) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	avs := make([]*Vec, len(v.args))
	for k, ae := range v.args {
		av, err := ae.eval(ctx, b)
		if err != nil {
			return nil, err
		}
		avs[k] = av
	}
	argv := make([]Value, len(v.args))
	return mapVec(b.n, func(i int) (Value, error) {
		for k := range avs {
			argv[k] = avs[k].At(i)
		}
		return applyScalarFunc(v.name, argv)
	})
}

type vcast struct {
	x    vexpr
	kind Kind
}

func (v *vcast) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	xv, err := v.x.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	return mapVec(b.n, func(i int) (Value, error) { return castValue(xv.At(i), v.kind) })
}

// vcase evaluates every arm over the batch, then selects per row. The row
// engine stops at the first truthy WHEN; eager arm evaluation selects the
// same value and can only add errors (→ row fallback).
type vcase struct {
	conds []vexpr
	thens []vexpr
	els   vexpr
}

func (v *vcase) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	cvs := make([]*Vec, len(v.conds))
	tvs := make([]*Vec, len(v.thens))
	for k := range v.conds {
		cv, err := v.conds[k].eval(ctx, b)
		if err != nil {
			return nil, err
		}
		cvs[k] = cv
		tv, err := v.thens[k].eval(ctx, b)
		if err != nil {
			return nil, err
		}
		tvs[k] = tv
	}
	var ev *Vec
	if v.els != nil {
		var err error
		ev, err = v.els.eval(ctx, b)
		if err != nil {
			return nil, err
		}
	}
	return mapVec(b.n, func(i int) (Value, error) {
		for k := range cvs {
			if cvs[k].At(i).AsBool() {
				return tvs[k].At(i), nil
			}
		}
		if ev != nil {
			return ev.At(i), nil
		}
		return Null(), nil
	})
}

// vsub is an uncorrelated scalar subquery: executed once, its single cell is
// broadcast. The scalar-shape checks mirror the row engine's SubqueryExpr
// case exactly.
type vsub struct{ sub *SelectStmt }

func (v *vsub) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	if b.n == 0 {
		return NewVec(KindNull, 0), nil
	}
	res, err := ctx.subResult(v, v.sub)
	if err != nil {
		return nil, err
	}
	if len(res.Cols) != 1 {
		return nil, fmt.Errorf("%w: scalar subquery with %d columns", ErrNotScalar, len(res.Cols))
	}
	val := Null()
	if len(res.Rows) > 1 {
		return nil, fmt.Errorf("%w: scalar subquery returned %d rows", ErrNotScalar, len(res.Rows))
	}
	if len(res.Rows) == 1 {
		val = res.Rows[0][0]
	}
	out := NewVec(val.Kind(), b.n)
	for i := 0; i < b.n; i++ {
		out.Append(val)
	}
	return out, nil
}

type vexists struct {
	sub *SelectStmt
	not bool
}

func (v *vexists) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	if b.n == 0 {
		return NewVec(KindNull, 0), nil
	}
	res, err := ctx.subResult(v, v.sub)
	if err != nil {
		return nil, err
	}
	found := len(res.Rows) > 0
	if v.not {
		found = !found
	}
	out := NewVec(KindNull, b.n)
	for i := 0; i < b.n; i++ {
		out.any = append(out.any, Bool(found))
	}
	return out, nil
}

type vinsub struct {
	x   vexpr
	sub *SelectStmt
	not bool
}

func (v *vinsub) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	xv, err := v.x.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	if b.n == 0 {
		return NewVec(KindNull, 0), nil
	}
	res, err := ctx.subResult(v, v.sub)
	if err != nil {
		return nil, err
	}
	if len(res.Cols) != 1 {
		return nil, fmt.Errorf("%w: IN subquery with %d columns", ErrNotScalar, len(res.Cols))
	}
	return mapVec(b.n, func(i int) (Value, error) {
		x := xv.At(i)
		found := false
		for _, r := range res.Rows {
			if x.Equal(r[0]) {
				found = true
				break
			}
		}
		if v.not {
			found = !found
		}
		return Bool(found), nil
	})
}

// vrowfb is the universal escape hatch: it rebuilds each batch row and
// evaluates the original expression on the row engine, preserving exact
// semantics (correlated subqueries, ambiguous shapes, canonical errors).
type vrowfb struct{ e Expr }

func (v *vrowfb) eval(ctx *vecCtx, b *vbatch) (*Vec, error) {
	row := make([]Value, len(ctx.binds))
	return mapVec(b.n, func(i int) (Value, error) {
		for s := range row {
			row[s] = b.cols[s].At(i)
		}
		en := &env{binds: ctx.binds, row: row}
		return ctx.ex.eval(v.e, en)
	})
}

// ---------------------------------------------------------------------------
// Aggregate-context expressions.

// gexpr evaluates to one value per group, mirroring groupEnv.eval.
type gexpr interface {
	eval(ctx *vecCtx, g *vgroup) (Value, error)
}

type glit struct{ val Value }

func (v *glit) eval(ctx *vecCtx, g *vgroup) (Value, error) { return v.val, nil }

// gcolfirst reads a column from the group's first row (all-NULL for an empty
// group), the row engine's semantics for bare columns under aggregation.
type gcolfirst struct{ slot int }

func (v *gcolfirst) eval(ctx *vecCtx, g *vgroup) (Value, error) {
	if len(g.rows) == 0 {
		return Null(), nil
	}
	return g.b.cols[v.slot].At(g.rows[0]), nil
}

type gunary struct {
	op string
	x  gexpr
}

func (v *gunary) eval(ctx *vecCtx, g *vgroup) (Value, error) {
	inner, err := v.x.eval(ctx, g)
	if err != nil {
		return Null(), err
	}
	return applyUnary(v.op, inner)
}

type gbin struct {
	op   string
	l, r gexpr
}

func (v *gbin) eval(ctx *vecCtx, g *vgroup) (Value, error) {
	if v.op == "AND" || v.op == "OR" {
		l, err := v.l.eval(ctx, g)
		if err != nil {
			return Null(), err
		}
		if v.op == "AND" && !l.AsBool() {
			return Bool(false), nil
		}
		if v.op == "OR" && l.AsBool() {
			return Bool(true), nil
		}
		r, err := v.r.eval(ctx, g)
		if err != nil {
			return Null(), err
		}
		return Bool(r.AsBool()), nil
	}
	l, err := v.l.eval(ctx, g)
	if err != nil {
		return Null(), err
	}
	r, err := v.r.eval(ctx, g)
	if err != nil {
		return Null(), err
	}
	return applyBinary(v.op, l, r)
}

type gscalar struct {
	name string
	args []gexpr
}

func (v *gscalar) eval(ctx *vecCtx, g *vgroup) (Value, error) {
	args := make([]Value, len(v.args))
	for i, a := range v.args {
		av, err := a.eval(ctx, g)
		if err != nil {
			return Null(), err
		}
		args[i] = av
	}
	return applyScalarFunc(v.name, args)
}

type gcast struct {
	x    gexpr
	kind Kind
}

func (v *gcast) eval(ctx *vecCtx, g *vgroup) (Value, error) {
	inner, err := v.x.eval(ctx, g)
	if err != nil {
		return Null(), err
	}
	return castValue(inner, v.kind)
}

type gcase struct {
	conds []gexpr
	thens []gexpr
	els   gexpr
}

func (v *gcase) eval(ctx *vecCtx, g *vgroup) (Value, error) {
	for k := range v.conds {
		c, err := v.conds[k].eval(ctx, g)
		if err != nil {
			return Null(), err
		}
		if c.AsBool() {
			return v.thens[k].eval(ctx, g)
		}
	}
	if v.els != nil {
		return v.els.eval(ctx, g)
	}
	return Null(), nil
}

// gfirstrow mirrors groupEnv.eval's default branch: evaluate the expression
// on the row engine against the group's first row (all-NULL when empty).
type gfirstrow struct{ e Expr }

func (v *gfirstrow) eval(ctx *vecCtx, g *vgroup) (Value, error) {
	row := make([]Value, len(ctx.binds))
	if len(g.rows) == 0 {
		for s := range row {
			row[s] = Null()
		}
	} else {
		r0 := g.rows[0]
		for s := range row {
			row[s] = g.b.cols[s].At(r0)
		}
	}
	en := &env{binds: ctx.binds, row: row}
	return ctx.ex.eval(v.e, en)
}

// gagg folds an aggregate over the group. The argument expression is
// evaluated once over the whole batch (memoized across groups and across the
// HAVING/items/ORDER BY positions that reference aggregates) and each group
// indexes into it; typed vectors take unboxed fold paths that reproduce
// evalAggregate's float64 arithmetic exactly.
type gagg struct {
	f   *FuncExpr
	arg vexpr
}

func (a *gagg) argVec(ctx *vecCtx, b *vbatch) (*Vec, error) {
	if av, ok := ctx.aggs[a]; ok {
		return av, nil
	}
	av, err := a.arg.eval(ctx, b)
	if err != nil {
		return nil, err
	}
	if ctx.aggs == nil {
		ctx.aggs = make(map[*gagg]*Vec)
	}
	ctx.aggs[a] = av
	return av, nil
}

func (a *gagg) eval(ctx *vecCtx, g *vgroup) (Value, error) {
	if a.f.Star {
		return Int(int64(len(g.rows))), nil
	}
	if len(a.f.Args) != 1 {
		return Null(), fmt.Errorf("%w: %s takes one argument", ErrType, a.f.Name)
	}
	av, err := a.argVec(ctx, g.b)
	if err != nil {
		return Null(), err
	}
	if !a.f.Distinct && typedNum(av) {
		return typedFold(a.f.Name, av, g.rows)
	}
	// Generic fold, streamed in row order: the values, DISTINCT keys,
	// operation order and first offending value of evalAggregate's
	// collect-then-fold, without collecting the values first.
	name := a.f.Name
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
	default:
		return Null(), fmt.Errorf("%w: aggregate %s", ErrUnsupported, name)
	}
	var seen map[string]bool
	if a.f.Distinct {
		seen = make(map[string]bool)
	}
	cnt := 0
	sum, allInt := 0.0, true
	var best Value
	for _, r := range g.rows {
		v := av.At(r)
		if v.IsNull() {
			continue
		}
		if seen != nil {
			k := v.key()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		switch name {
		case "SUM", "AVG":
			fv, ok := v.AsFloat()
			if !ok {
				return Null(), fmt.Errorf("%w: %s over non-numeric value %q", ErrType, name, v.String())
			}
			if v.Kind() != KindInt {
				allInt = false
			}
			sum += fv
		case "MIN", "MAX":
			if cnt == 0 {
				best = v
				break
			}
			c, ok := v.Compare(best)
			if !ok {
				return Null(), fmt.Errorf("%w: %s over incomparable values", ErrType, name)
			}
			if (name == "MIN" && c < 0) || (name == "MAX" && c > 0) {
				best = v
			}
		}
		cnt++
	}
	if name == "COUNT" {
		return Int(int64(cnt)), nil
	}
	if cnt == 0 {
		return Null(), nil
	}
	switch name {
	case "AVG":
		return Float(sum / float64(cnt)), nil
	case "SUM":
		if allInt && sum == math.Trunc(sum) {
			return Int(int64(sum)), nil
		}
		return Float(sum), nil
	}
	return best, nil
}

// typedFold folds an aggregate over an unboxed numeric vector without
// boxing. All arithmetic goes through float64 — including MIN/MAX
// comparisons and SUM accumulation over integers — because that is what
// evalAggregate does via AsFloat/Compare.
func typedFold(name string, av *Vec, rows []int) (Value, error) {
	switch name {
	case "COUNT":
		n := int64(0)
		for _, r := range rows {
			if !av.nulls[r] {
				n++
			}
		}
		return Int(n), nil
	case "SUM", "AVG":
		sum := 0.0
		cnt := 0
		for _, r := range rows {
			if av.nulls[r] {
				continue
			}
			sum += numAt(av, r)
			cnt++
		}
		if cnt == 0 {
			return Null(), nil
		}
		if name == "AVG" {
			return Float(sum / float64(cnt)), nil
		}
		if av.kind == KindInt && sum == math.Trunc(sum) {
			return Int(int64(sum)), nil
		}
		return Float(sum), nil
	case "MIN", "MAX":
		best := -1
		for _, r := range rows {
			if av.nulls[r] {
				continue
			}
			if best < 0 {
				best = r
				continue
			}
			cur, b := numAt(av, r), numAt(av, best)
			if (name == "MIN" && cur < b) || (name == "MAX" && cur > b) {
				best = r
			}
		}
		if best < 0 {
			return Null(), nil
		}
		return av.At(best), nil
	}
	return Null(), fmt.Errorf("%w: aggregate %s", ErrUnsupported, name)
}
