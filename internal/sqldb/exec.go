package sqldb

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Result is a materialized query result.
type Result struct {
	Cols []string
	Rows [][]Value
}

// Scalar extracts the single cell of a 1x1 result.
func (r *Result) Scalar() (Value, error) {
	if len(r.Cols) != 1 || len(r.Rows) != 1 {
		return Null(), fmt.Errorf("%w: got %d column(s) x %d row(s)", ErrNotScalar, len(r.Cols), len(r.Rows))
	}
	return r.Rows[0][0], nil
}

// String renders the result as a compact pipe-separated table.
func (r *Result) String() string {
	var b strings.Builder
	b.WriteString(strings.Join(r.Cols, " | "))
	for _, row := range r.Rows {
		b.WriteByte('\n')
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.String()
		}
		b.WriteString(strings.Join(cells, " | "))
	}
	return b.String()
}

// Engine executes parsed SELECT statements. Two implementations exist: Row,
// the original tree-walking row-at-a-time evaluator (kept as the semantic
// oracle), and Vectorized, the columnar batch executor. The differential
// test harness cross-checks one against the other.
type Engine interface {
	// Name identifies the engine in diagnostics and benchmarks.
	Name() string
	// ExecStmt executes stmt against db.
	ExecStmt(db *Database, stmt *SelectStmt) (*Result, error)
}

type rowEngine struct{}

func (rowEngine) Name() string { return "row" }
func (rowEngine) ExecStmt(db *Database, stmt *SelectStmt) (*Result, error) {
	return Exec(db, stmt)
}

type vecEngine struct{}

func (vecEngine) Name() string { return "vectorized" }
func (vecEngine) ExecStmt(db *Database, stmt *SelectStmt) (*Result, error) {
	return ExecVec(db, stmt)
}

// Row is the row-at-a-time oracle engine.
var Row Engine = rowEngine{}

// Vectorized is the columnar batch engine.
var Vectorized Engine = vecEngine{}

// Query parses and executes a SELECT statement against db. Parsed plans are
// cached on the database keyed by normalized query text, and execution runs
// on the vectorized engine; any vectorized-execution error falls back to the
// row-at-a-time oracle, so callers observe exactly the row engine's results
// and error surface.
func Query(db *Database, sql string) (*Result, error) {
	pe, err := db.plans.lookup(db, sql)
	if err != nil {
		return nil, err
	}
	return pe.exec(db)
}

// QueryScalar executes sql and returns its single-cell result. Queries used
// for claim verification must produce exactly one cell (Definition 2.4).
func QueryScalar(db *Database, sql string) (Value, error) {
	res, err := Query(db, sql)
	if err != nil {
		return Null(), err
	}
	return res.Scalar()
}

// Exec executes a parsed statement against db on the row-at-a-time
// evaluator — the semantic oracle the vectorized engine is differentially
// tested against, and the fallback Query runs when vectorized execution
// declines a statement.
func Exec(db *Database, stmt *SelectStmt) (*Result, error) {
	ex := &executor{db: db}
	return ex.execSelect(stmt, nil)
}

// colBind names one slot of a working row: the effective table name (alias)
// and the column name.
type colBind struct {
	table string
	name  string
}

// env gives expression evaluation access to the current working row and,
// through parent, to outer rows of enclosing (correlated) queries.
type env struct {
	binds  []colBind
	row    []Value
	parent *env
}

func (e *env) lookup(table, name string) (Value, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		for i, b := range cur.binds {
			if table != "" && !strings.EqualFold(b.table, table) {
				continue
			}
			if strings.EqualFold(b.name, name) {
				return cur.row[i], true
			}
		}
	}
	return Null(), false
}

type executor struct {
	db *Database
}

// workingSet is the row stream produced by FROM/JOIN evaluation.
type workingSet struct {
	binds []colBind
	rows  [][]Value
}

func (ex *executor) execSelect(stmt *SelectStmt, outer *env) (*Result, error) {
	ws, err := ex.buildFrom(stmt, outer)
	if err != nil {
		return nil, err
	}
	// WHERE
	if stmt.Where != nil {
		filtered := ws.rows[:0:0]
		for _, row := range ws.rows {
			e := &env{binds: ws.binds, row: row, parent: outer}
			v, err := ex.eval(stmt.Where, e)
			if err != nil {
				return nil, err
			}
			if v.AsBool() {
				filtered = append(filtered, row)
			}
		}
		ws.rows = filtered
	}
	items, err := expandStars(stmt.Items, ws.binds)
	if err != nil {
		return nil, err
	}
	aggregated := len(stmt.GroupBy) > 0 || stmt.Having != nil || itemsHaveAggregate(items)

	var out []outRow
	cols := projectionNames(items)

	if aggregated {
		groups, err := ex.groupRows(stmt, ws, outer)
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			genv := &groupEnv{ex: ex, ws: ws, rows: g, outer: outer}
			if stmt.Having != nil {
				hv, err := genv.eval(stmt.Having)
				if err != nil {
					return nil, err
				}
				if !hv.AsBool() {
					continue
				}
			}
			row := outRow{}
			for _, it := range items {
				v, err := genv.eval(it.Expr)
				if err != nil {
					return nil, err
				}
				row.cells = append(row.cells, v)
			}
			for _, o := range stmt.OrderBy {
				v, err := ex.orderKey(o.Expr, items, row.cells, func(e Expr) (Value, error) { return genv.eval(e) })
				if err != nil {
					return nil, err
				}
				row.keys = append(row.keys, v)
			}
			out = append(out, row)
		}
	} else {
		for _, r := range ws.rows {
			e := &env{binds: ws.binds, row: r, parent: outer}
			row := outRow{}
			for _, it := range items {
				v, err := ex.eval(it.Expr, e)
				if err != nil {
					return nil, err
				}
				row.cells = append(row.cells, v)
			}
			for _, o := range stmt.OrderBy {
				v, err := ex.orderKey(o.Expr, items, row.cells, func(x Expr) (Value, error) { return ex.eval(x, e) })
				if err != nil {
					return nil, err
				}
				row.keys = append(row.keys, v)
			}
			out = append(out, row)
		}
		// Table-less SELECT (FROM absent) evaluates once over no bindings.
		if stmt.From == nil {
			e := &env{parent: outer}
			row := outRow{}
			for _, it := range items {
				v, err := ex.eval(it.Expr, e)
				if err != nil {
					return nil, err
				}
				row.cells = append(row.cells, v)
			}
			out = []outRow{row}
		}
	}

	return finishSelect(stmt, cols, out), nil
}

// outRow is one projected row awaiting the DISTINCT/ORDER BY/LIMIT tail.
type outRow struct {
	cells []Value
	keys  []Value // ORDER BY keys
}

// finishSelect applies the statement tail — DISTINCT, ORDER BY, OFFSET,
// LIMIT — and assembles the final result. Both engines share this code so
// ordering, deduplication, and truncation semantics cannot diverge.
func finishSelect(stmt *SelectStmt, cols []string, out []outRow) *Result {
	if stmt.Distinct {
		seen := make(map[string]bool)
		dedup := out[:0:0]
		for _, r := range out {
			var key strings.Builder
			for _, c := range r.cells {
				key.WriteString(c.key())
			}
			if !seen[key.String()] {
				seen[key.String()] = true
				dedup = append(dedup, r)
			}
		}
		out = dedup
	}

	if len(stmt.OrderBy) > 0 {
		sort.SliceStable(out, func(i, j int) bool {
			for k, o := range stmt.OrderBy {
				c, ok := out[i].keys[k].Compare(out[j].keys[k])
				if !ok {
					// NULLs sort first ascending.
					in, jn := out[i].keys[k].IsNull(), out[j].keys[k].IsNull()
					if in == jn {
						continue
					}
					if o.Desc {
						return jn
					}
					return in
				}
				if c == 0 {
					continue
				}
				if o.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}

	if stmt.Offset > 0 {
		if stmt.Offset >= len(out) {
			out = nil
		} else {
			out = out[stmt.Offset:]
		}
	}
	if stmt.Limit >= 0 && stmt.Limit < len(out) {
		out = out[:stmt.Limit]
	}

	res := &Result{Cols: cols}
	for _, r := range out {
		res.Rows = append(res.Rows, r.cells)
	}
	return res
}

// orderKey evaluates an ORDER BY expression, resolving bare names that match
// a projection alias to the already-computed cell.
func (ex *executor) orderKey(e Expr, items []SelectItem, cells []Value, evalFn func(Expr) (Value, error)) (Value, error) {
	if ce, ok := e.(*ColumnExpr); ok && ce.Table == "" {
		for i, it := range items {
			if strings.EqualFold(it.Alias, ce.Name) {
				return cells[i], nil
			}
		}
	}
	// ORDER BY ordinal (1-based).
	if le, ok := e.(*LiteralExpr); ok {
		if n, ok := le.Val.AsInt(); ok && n >= 1 && int(n) <= len(cells) {
			return cells[n-1], nil
		}
	}
	return evalFn(e)
}

func (ex *executor) buildFrom(stmt *SelectStmt, outer *env) (*workingSet, error) {
	if stmt.From == nil {
		return &workingSet{}, nil
	}
	ws, err := ex.scanTable(*stmt.From)
	if err != nil {
		return nil, err
	}
	for _, j := range stmt.Joins {
		if j.Kind == "RIGHT" {
			return nil, fmt.Errorf("%w: RIGHT JOIN", ErrUnsupported)
		}
		right, err := ex.scanTable(j.Table)
		if err != nil {
			return nil, err
		}
		joined, err := ex.joinSets(ws, right, j, outer)
		if err != nil {
			return nil, err
		}
		ws = joined
	}
	return ws, nil
}

// joinSets combines two working sets under a join clause. Simple equi-joins
// (ON a.x = b.y with one side per input) run as hash joins; everything else
// falls back to a nested loop with the ON predicate as filter.
func (ex *executor) joinSets(left, right *workingSet, j JoinClause, outer *env) (*workingSet, error) {
	joined := &workingSet{binds: append(append([]colBind{}, left.binds...), right.binds...)}
	if li, ri, ok := equiJoinColumns(j.On, left, right); ok {
		// Hash join: build on the right side, probe with the left.
		build := make(map[string][]int, len(right.rows))
		for idx, rr := range right.rows {
			v := rr[ri]
			if v.IsNull() {
				continue // NULL keys never match in SQL equality
			}
			build[joinKey(v)] = append(build[joinKey(v)], idx)
		}
		for _, lr := range left.rows {
			v := lr[li]
			var matches []int
			if !v.IsNull() {
				matches = build[joinKey(v)]
			}
			for _, idx := range matches {
				joined.rows = append(joined.rows, append(append([]Value{}, lr...), right.rows[idx]...))
			}
			if len(matches) == 0 && j.Kind == "LEFT" {
				joined.rows = append(joined.rows, append(append([]Value{}, lr...), nullRow(len(right.binds))...))
			}
		}
		return joined, nil
	}
	for _, lr := range left.rows {
		matched := false
		for _, rr := range right.rows {
			combined := append(append([]Value{}, lr...), rr...)
			if j.On != nil {
				e := &env{binds: joined.binds, row: combined, parent: outer}
				v, err := ex.eval(j.On, e)
				if err != nil {
					return nil, err
				}
				if !v.AsBool() {
					continue
				}
			}
			matched = true
			joined.rows = append(joined.rows, combined)
		}
		if !matched && j.Kind == "LEFT" {
			joined.rows = append(joined.rows, append(append([]Value{}, lr...), nullRow(len(right.binds))...))
		}
	}
	return joined, nil
}

// joinKey hashes a value for equi-join matching with the same numeric
// coercion Value.Compare applies (text "5" equals integer 5), so the hash
// path agrees with the nested-loop path.
func joinKey(v Value) string {
	if f, ok := v.AsFloat(); ok && v.Kind() != KindBool {
		return Float(f).key()
	}
	return v.key()
}

func nullRow(n int) []Value {
	nulls := make([]Value, n)
	for i := range nulls {
		nulls[i] = Null()
	}
	return nulls
}

// equiJoinColumns recognizes ON clauses of the form colA = colB where one
// column resolves in the left set and the other in the right, returning
// their slot indices. ok is false for any other predicate shape (the
// caller then nested-loops).
func equiJoinColumns(on Expr, left, right *workingSet) (li, ri int, ok bool) {
	be, isBin := on.(*BinaryExpr)
	if !isBin || be.Op != "=" {
		return 0, 0, false
	}
	lc, okL := be.Left.(*ColumnExpr)
	rc, okR := be.Right.(*ColumnExpr)
	if !okL || !okR {
		return 0, 0, false
	}
	// Each column must resolve unambiguously in exactly one side.
	tryResolve := func(c *ColumnExpr, ws *workingSet) (int, bool) {
		found := -1
		for i, b := range ws.binds {
			if c.Table != "" && !strings.EqualFold(b.table, c.Table) {
				continue
			}
			if strings.EqualFold(b.name, c.Name) {
				if found >= 0 {
					return -1, false // ambiguous
				}
				found = i
			}
		}
		return found, found >= 0
	}
	if l, okA := tryResolve(lc, left); okA {
		if r, okB := tryResolve(rc, right); okB {
			return l, r, true
		}
	}
	if l, okA := tryResolve(rc, left); okA {
		if r, okB := tryResolve(lc, right); okB {
			return l, r, true
		}
	}
	return 0, 0, false
}

func (ex *executor) scanTable(ref TableRef) (*workingSet, error) {
	t, names := ex.db.resolveTable(ref.Name)
	if t == nil {
		return nil, fmt.Errorf("%w: %q (available: %s)", ErrUnknownTable, ref.Name,
			strings.Join(names, ", "))
	}
	eff := ref.EffectiveName()
	ws := &workingSet{}
	for _, c := range t.Columns {
		ws.binds = append(ws.binds, colBind{table: eff, name: c.Name})
	}
	ws.rows = t.Rows
	return ws, nil
}

func expandStars(items []SelectItem, binds []colBind) ([]SelectItem, error) {
	var out []SelectItem
	for _, it := range items {
		star, ok := it.Expr.(*StarExpr)
		if !ok {
			out = append(out, it)
			continue
		}
		found := false
		for _, b := range binds {
			if star.Table != "" && !strings.EqualFold(b.table, star.Table) {
				continue
			}
			found = true
			out = append(out, SelectItem{Expr: &ColumnExpr{Table: b.table, Name: b.name}})
		}
		if !found && star.Table != "" {
			return nil, fmt.Errorf("%w: %q for %s.*", ErrUnknownTable, star.Table, star.Table)
		}
	}
	return out, nil
}

func projectionNames(items []SelectItem) []string {
	names := make([]string, len(items))
	for i, it := range items {
		switch {
		case it.Alias != "":
			names[i] = it.Alias
		default:
			if ce, ok := it.Expr.(*ColumnExpr); ok {
				names[i] = ce.Name
			} else {
				names[i] = it.Expr.SQL()
			}
		}
	}
	return names
}

func itemsHaveAggregate(items []SelectItem) bool {
	for _, it := range items {
		if exprHasAggregate(it.Expr) {
			return true
		}
	}
	return false
}

func exprHasAggregate(e Expr) bool {
	switch v := e.(type) {
	case *FuncExpr:
		if v.IsAggregate() {
			return true
		}
		for _, a := range v.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	case *UnaryExpr:
		return exprHasAggregate(v.Expr)
	case *BinaryExpr:
		return exprHasAggregate(v.Left) || exprHasAggregate(v.Right)
	case *BetweenExpr:
		return exprHasAggregate(v.Expr) || exprHasAggregate(v.Lo) || exprHasAggregate(v.Hi)
	case *CastExpr:
		return exprHasAggregate(v.Expr)
	case *CaseExpr:
		for _, w := range v.Whens {
			if exprHasAggregate(w.Cond) || exprHasAggregate(w.Then) {
				return true
			}
		}
		if v.Else != nil {
			return exprHasAggregate(v.Else)
		}
	case *InExpr:
		if exprHasAggregate(v.Expr) {
			return true
		}
		for _, it := range v.List {
			if exprHasAggregate(it) {
				return true
			}
		}
	case *IsNullExpr:
		return exprHasAggregate(v.Expr)
	}
	return false
}

// groupRows partitions the working set by the GROUP BY keys. With no GROUP
// BY the entire set forms one group (even when empty, so that aggregates
// over empty inputs produce a row).
func (ex *executor) groupRows(stmt *SelectStmt, ws *workingSet, outer *env) ([][][]Value, error) {
	if len(stmt.GroupBy) == 0 {
		return [][][]Value{ws.rows}, nil
	}
	index := make(map[string]int)
	var groups [][][]Value
	for _, row := range ws.rows {
		e := &env{binds: ws.binds, row: row, parent: outer}
		var key strings.Builder
		for _, g := range stmt.GroupBy {
			v, err := ex.eval(g, e)
			if err != nil {
				return nil, err
			}
			key.WriteString(v.key())
		}
		k := key.String()
		i, ok := index[k]
		if !ok {
			i = len(groups)
			index[k] = i
			groups = append(groups, nil)
		}
		groups[i] = append(groups[i], row)
	}
	return groups, nil
}

// groupEnv evaluates expressions in aggregate context: aggregate calls fold
// over the group's rows; other expressions evaluate against the group's
// first row.
type groupEnv struct {
	ex    *executor
	ws    *workingSet
	rows  [][]Value
	outer *env
}

func (g *groupEnv) firstEnv() *env {
	if len(g.rows) == 0 {
		// Empty group (aggregate over empty input): all columns NULL.
		nulls := make([]Value, len(g.ws.binds))
		for i := range nulls {
			nulls[i] = Null()
		}
		return &env{binds: g.ws.binds, row: nulls, parent: g.outer}
	}
	return &env{binds: g.ws.binds, row: g.rows[0], parent: g.outer}
}

func (g *groupEnv) eval(e Expr) (Value, error) {
	switch v := e.(type) {
	case *FuncExpr:
		if v.IsAggregate() {
			return g.evalAggregate(v)
		}
		args := make([]Value, len(v.Args))
		for i, a := range v.Args {
			av, err := g.eval(a)
			if err != nil {
				return Null(), err
			}
			args[i] = av
		}
		return applyScalarFunc(v.Name, args)
	case *UnaryExpr:
		inner, err := g.eval(v.Expr)
		if err != nil {
			return Null(), err
		}
		return applyUnary(v.Op, inner)
	case *BinaryExpr:
		if v.Op == "AND" || v.Op == "OR" {
			l, err := g.eval(v.Left)
			if err != nil {
				return Null(), err
			}
			if v.Op == "AND" && !l.AsBool() {
				return Bool(false), nil
			}
			if v.Op == "OR" && l.AsBool() {
				return Bool(true), nil
			}
			r, err := g.eval(v.Right)
			if err != nil {
				return Null(), err
			}
			return Bool(r.AsBool()), nil
		}
		l, err := g.eval(v.Left)
		if err != nil {
			return Null(), err
		}
		r, err := g.eval(v.Right)
		if err != nil {
			return Null(), err
		}
		return applyBinary(v.Op, l, r)
	case *CastExpr:
		inner, err := g.eval(v.Expr)
		if err != nil {
			return Null(), err
		}
		return castValue(inner, v.Type)
	case *CaseExpr:
		for _, w := range v.Whens {
			c, err := g.eval(w.Cond)
			if err != nil {
				return Null(), err
			}
			if c.AsBool() {
				return g.eval(w.Then)
			}
		}
		if v.Else != nil {
			return g.eval(v.Else)
		}
		return Null(), nil
	default:
		return g.ex.eval(e, g.firstEnv())
	}
}

func (g *groupEnv) evalAggregate(f *FuncExpr) (Value, error) {
	// COUNT(*) counts rows.
	if f.Star {
		return Int(int64(len(g.rows))), nil
	}
	if len(f.Args) != 1 {
		return Null(), fmt.Errorf("%w: %s takes one argument", ErrType, f.Name)
	}
	var vals []Value
	seen := make(map[string]bool)
	for _, row := range g.rows {
		e := &env{binds: g.ws.binds, row: row, parent: g.outer}
		v, err := g.ex.eval(f.Args[0], e)
		if err != nil {
			return Null(), err
		}
		if v.IsNull() {
			continue
		}
		if f.Distinct {
			k := v.key()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch f.Name {
	case "COUNT":
		return Int(int64(len(vals))), nil
	case "SUM", "AVG":
		if len(vals) == 0 {
			return Null(), nil
		}
		sum := 0.0
		allInt := true
		for _, v := range vals {
			fv, ok := v.AsFloat()
			if !ok {
				return Null(), fmt.Errorf("%w: %s over non-numeric value %q", ErrType, f.Name, v.String())
			}
			if v.Kind() != KindInt {
				allInt = false
			}
			sum += fv
		}
		if f.Name == "AVG" {
			return Float(sum / float64(len(vals))), nil
		}
		if allInt && sum == math.Trunc(sum) {
			return Int(int64(sum)), nil
		}
		return Float(sum), nil
	case "MIN", "MAX":
		if len(vals) == 0 {
			return Null(), nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, ok := v.Compare(best)
			if !ok {
				return Null(), fmt.Errorf("%w: %s over incomparable values", ErrType, f.Name)
			}
			if (f.Name == "MIN" && c < 0) || (f.Name == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return Null(), fmt.Errorf("%w: aggregate %s", ErrUnsupported, f.Name)
}

// eval evaluates an expression in row context.
func (ex *executor) eval(e Expr, en *env) (Value, error) {
	switch v := e.(type) {
	case *LiteralExpr:
		return v.Val, nil
	case *ColumnExpr:
		val, ok := en.lookup(v.Table, v.Name)
		if !ok {
			return Null(), fmt.Errorf("%w: %q", ErrUnknownColumn, v.SQL())
		}
		return val, nil
	case *UnaryExpr:
		inner, err := ex.eval(v.Expr, en)
		if err != nil {
			return Null(), err
		}
		return applyUnary(v.Op, inner)
	case *BinaryExpr:
		if v.Op == "AND" || v.Op == "OR" {
			l, err := ex.eval(v.Left, en)
			if err != nil {
				return Null(), err
			}
			if v.Op == "AND" && !l.AsBool() {
				return Bool(false), nil
			}
			if v.Op == "OR" && l.AsBool() {
				return Bool(true), nil
			}
			r, err := ex.eval(v.Right, en)
			if err != nil {
				return Null(), err
			}
			return Bool(r.AsBool()), nil
		}
		l, err := ex.eval(v.Left, en)
		if err != nil {
			return Null(), err
		}
		r, err := ex.eval(v.Right, en)
		if err != nil {
			return Null(), err
		}
		return applyBinary(v.Op, l, r)
	case *BetweenExpr:
		x, err := ex.eval(v.Expr, en)
		if err != nil {
			return Null(), err
		}
		lo, err := ex.eval(v.Lo, en)
		if err != nil {
			return Null(), err
		}
		hi, err := ex.eval(v.Hi, en)
		if err != nil {
			return Null(), err
		}
		c1, ok1 := x.Compare(lo)
		c2, ok2 := x.Compare(hi)
		res := ok1 && ok2 && c1 >= 0 && c2 <= 0
		if v.Not {
			res = !res
		}
		return Bool(res), nil
	case *InExpr:
		return ex.evalIn(v, en)
	case *IsNullExpr:
		x, err := ex.eval(v.Expr, en)
		if err != nil {
			return Null(), err
		}
		res := x.IsNull()
		if v.Not {
			res = !res
		}
		return Bool(res), nil
	case *FuncExpr:
		if v.IsAggregate() {
			return Null(), fmt.Errorf("%w: aggregate %s outside aggregate context", ErrType, v.Name)
		}
		args := make([]Value, len(v.Args))
		for i, a := range v.Args {
			av, err := ex.eval(a, en)
			if err != nil {
				return Null(), err
			}
			args[i] = av
		}
		return applyScalarFunc(v.Name, args)
	case *CastExpr:
		inner, err := ex.eval(v.Expr, en)
		if err != nil {
			return Null(), err
		}
		return castValue(inner, v.Type)
	case *CaseExpr:
		for _, w := range v.Whens {
			c, err := ex.eval(w.Cond, en)
			if err != nil {
				return Null(), err
			}
			if c.AsBool() {
				return ex.eval(w.Then, en)
			}
		}
		if v.Else != nil {
			return ex.eval(v.Else, en)
		}
		return Null(), nil
	case *SubqueryExpr:
		res, err := ex.execSelect(v.Stmt, en)
		if err != nil {
			return Null(), err
		}
		if len(res.Cols) != 1 {
			return Null(), fmt.Errorf("%w: scalar subquery with %d columns", ErrNotScalar, len(res.Cols))
		}
		if len(res.Rows) == 0 {
			return Null(), nil
		}
		if len(res.Rows) > 1 {
			return Null(), fmt.Errorf("%w: scalar subquery returned %d rows", ErrNotScalar, len(res.Rows))
		}
		return res.Rows[0][0], nil
	case *ExistsExpr:
		res, err := ex.execSelect(v.Stmt, en)
		if err != nil {
			return Null(), err
		}
		found := len(res.Rows) > 0
		if v.Not {
			found = !found
		}
		return Bool(found), nil
	case *StarExpr:
		return Null(), fmt.Errorf("%w: * outside SELECT list", ErrSyntax)
	}
	return Null(), fmt.Errorf("%w: unhandled expression %T", ErrUnsupported, e)
}

func (ex *executor) evalIn(v *InExpr, en *env) (Value, error) {
	x, err := ex.eval(v.Expr, en)
	if err != nil {
		return Null(), err
	}
	var candidates []Value
	if v.Sub != nil {
		res, err := ex.execSelect(v.Sub, en)
		if err != nil {
			return Null(), err
		}
		if len(res.Cols) != 1 {
			return Null(), fmt.Errorf("%w: IN subquery with %d columns", ErrNotScalar, len(res.Cols))
		}
		for _, r := range res.Rows {
			candidates = append(candidates, r[0])
		}
	} else {
		for _, item := range v.List {
			c, err := ex.eval(item, en)
			if err != nil {
				return Null(), err
			}
			candidates = append(candidates, c)
		}
	}
	found := false
	for _, c := range candidates {
		if x.Equal(c) {
			found = true
			break
		}
	}
	if v.Not {
		found = !found
	}
	return Bool(found), nil
}

func applyUnary(op string, v Value) (Value, error) {
	switch op {
	case "-":
		switch v.Kind() {
		case KindInt:
			i, _ := v.AsInt()
			return Int(-i), nil
		case KindFloat:
			f, _ := v.AsFloat()
			return Float(-f), nil
		case KindNull:
			return Null(), nil
		}
		return Null(), fmt.Errorf("%w: unary - on %s", ErrType, v.Kind())
	case "NOT":
		if v.IsNull() {
			return Null(), nil
		}
		return Bool(!v.AsBool()), nil
	}
	return Null(), fmt.Errorf("%w: unary operator %q", ErrUnsupported, op)
}

func applyBinary(op string, l, r Value) (Value, error) {
	switch op {
	case "+", "-", "*", "/", "%":
		return applyArith(op, l, r)
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return Bool(false), nil
		}
		c, ok := l.Compare(r)
		if !ok {
			// Incomparable values are unequal rather than an error: LLM
			// queries routinely compare text columns to numbers.
			return Bool(op == "<>"), nil
		}
		switch op {
		case "=":
			return Bool(c == 0), nil
		case "<>":
			return Bool(c != 0), nil
		case "<":
			return Bool(c < 0), nil
		case "<=":
			return Bool(c <= 0), nil
		case ">":
			return Bool(c > 0), nil
		case ">=":
			return Bool(c >= 0), nil
		}
	case "LIKE":
		if l.IsNull() || r.IsNull() {
			return Bool(false), nil
		}
		return Bool(likeMatch(l.Text(), r.Text())), nil
	case "||":
		if l.IsNull() || r.IsNull() {
			return Null(), nil
		}
		return Text(l.Text() + r.Text()), nil
	}
	return Null(), fmt.Errorf("%w: operator %q", ErrUnsupported, op)
}

func applyArith(op string, l, r Value) (Value, error) {
	if l.IsNull() || r.IsNull() {
		return Null(), nil
	}
	lf, ok1 := l.AsFloat()
	rf, ok2 := r.AsFloat()
	if !ok1 || !ok2 {
		return Null(), fmt.Errorf("%w: %s %s %s", ErrType, l.Kind(), op, r.Kind())
	}
	bothInt := l.Kind() == KindInt && r.Kind() == KindInt
	switch op {
	case "+":
		if bothInt {
			return Int(int64(lf) + int64(rf)), nil
		}
		return Float(lf + rf), nil
	case "-":
		if bothInt {
			return Int(int64(lf) - int64(rf)), nil
		}
		return Float(lf - rf), nil
	case "*":
		if bothInt {
			return Int(int64(lf) * int64(rf)), nil
		}
		return Float(lf * rf), nil
	case "/":
		if rf == 0 {
			return Null(), nil
		}
		// Match DuckDB: division always yields a float, so percentage
		// queries like COUNT(...)*100.0/COUNT(...) behave as expected;
		// integer division of exact multiples stays integral.
		if bothInt && int64(lf)%int64(rf) == 0 {
			return Int(int64(lf) / int64(rf)), nil
		}
		return Float(lf / rf), nil
	case "%":
		if rf == 0 {
			return Null(), nil
		}
		if bothInt {
			return Int(int64(lf) % int64(rf)), nil
		}
		return Float(math.Mod(lf, rf)), nil
	}
	return Null(), fmt.Errorf("%w: operator %q", ErrUnsupported, op)
}

// likeMatch implements SQL LIKE with % and _ wildcards, case-insensitively
// (the common configuration for the engines CEDAR targets).
func likeMatch(s, pattern string) bool {
	s = strings.ToLower(s)
	pattern = strings.ToLower(pattern)
	return likeRec(s, pattern)
}

func likeRec(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRec(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

func applyScalarFunc(name string, args []Value) (Value, error) {
	argc := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("%w: %s expects %d argument(s), got %d", ErrType, name, n, len(args))
		}
		return nil
	}
	switch name {
	case "ABS":
		if err := argc(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		if args[0].Kind() == KindInt {
			i, _ := args[0].AsInt()
			if i < 0 {
				i = -i
			}
			return Int(i), nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return Null(), fmt.Errorf("%w: ABS of %s", ErrType, args[0].Kind())
		}
		return Float(math.Abs(f)), nil
	case "ROUND":
		if len(args) != 1 && len(args) != 2 {
			return Null(), fmt.Errorf("%w: ROUND expects 1 or 2 arguments", ErrType)
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		f, ok := args[0].AsFloat()
		if !ok {
			return Null(), fmt.Errorf("%w: ROUND of %s", ErrType, args[0].Kind())
		}
		prec := int64(0)
		if len(args) == 2 {
			p, ok := args[1].AsInt()
			if !ok {
				return Null(), fmt.Errorf("%w: ROUND precision", ErrType)
			}
			prec = p
		}
		pow := math.Pow(10, float64(prec))
		r := math.Round(f*pow) / pow
		if prec <= 0 && r == math.Trunc(r) {
			return Int(int64(r)), nil
		}
		return Float(r), nil
	case "LOWER":
		if err := argc(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.ToLower(args[0].Text())), nil
	case "UPPER":
		if err := argc(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.ToUpper(args[0].Text())), nil
	case "LENGTH":
		if err := argc(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Int(int64(len(args[0].Text()))), nil
	case "TRIM":
		if err := argc(1); err != nil {
			return Null(), err
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		return Text(strings.TrimSpace(args[0].Text())), nil
	case "COALESCE":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return Null(), nil
	case "NULLIF":
		if err := argc(2); err != nil {
			return Null(), err
		}
		if args[0].Equal(args[1]) {
			return Null(), nil
		}
		return args[0], nil
	case "SUBSTR", "SUBSTRING":
		if len(args) != 2 && len(args) != 3 {
			return Null(), fmt.Errorf("%w: %s expects 2 or 3 arguments", ErrType, name)
		}
		if args[0].IsNull() {
			return Null(), nil
		}
		s := args[0].Text()
		start, ok := args[1].AsInt()
		if !ok {
			return Null(), fmt.Errorf("%w: %s start", ErrType, name)
		}
		i := int(start) - 1 // SQL is 1-based
		if i < 0 {
			i = 0
		}
		if i > len(s) {
			return Text(""), nil
		}
		out := s[i:]
		if len(args) == 3 {
			n, ok := args[2].AsInt()
			if !ok {
				return Null(), fmt.Errorf("%w: %s length", ErrType, name)
			}
			if int(n) < len(out) {
				out = out[:n]
			}
		}
		return Text(out), nil
	}
	return Null(), fmt.Errorf("%w: function %s", ErrUnsupported, name)
}

func castValue(v Value, k Kind) (Value, error) {
	if v.IsNull() {
		return Null(), nil
	}
	switch k {
	case KindInt:
		if f, ok := v.AsFloat(); ok {
			return Int(int64(f)), nil
		}
		return Null(), fmt.Errorf("%w: cannot cast %q to INTEGER", ErrType, v.String())
	case KindFloat:
		if f, ok := v.AsFloat(); ok {
			return Float(f), nil
		}
		return Null(), fmt.Errorf("%w: cannot cast %q to REAL", ErrType, v.String())
	case KindText:
		return Text(v.String()), nil
	case KindBool:
		return Bool(v.AsBool()), nil
	}
	return Null(), fmt.Errorf("%w: cast to %s", ErrUnsupported, k)
}
