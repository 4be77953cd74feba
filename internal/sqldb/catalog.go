package sqldb

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Column describes one column of a table.
type Column struct {
	Name string
	Type Kind
}

// Table is an in-memory relation: an ordered column list plus row storage.
type Table struct {
	Name    string
	Columns []Column
	Rows    [][]Value
}

// NewTable constructs an empty table with the given column names. Column
// types start as NULL and are refined as rows are appended.
func NewTable(name string, cols ...string) *Table {
	t := &Table{Name: name}
	for _, c := range cols {
		t.Columns = append(t.Columns, Column{Name: c, Type: KindNull})
	}
	return t
}

// AppendRow adds a row, refining column types from the appended values. The
// row length must match the column count.
func (t *Table) AppendRow(vals ...Value) error {
	if len(vals) != len(t.Columns) {
		return fmt.Errorf("table %s: row has %d values, want %d", t.Name, len(vals), len(t.Columns))
	}
	for i, v := range vals {
		t.Columns[i].Type = mergeKind(t.Columns[i].Type, v.Kind())
	}
	t.Rows = append(t.Rows, vals)
	return nil
}

// MustAppendRow is AppendRow but panics on arity mismatch; intended for
// static table construction in corpora and tests.
func (t *Table) MustAppendRow(vals ...Value) {
	if err := t.AppendRow(vals...); err != nil {
		panic(err)
	}
}

// ColumnIndex returns the position of the named column (case-insensitive),
// or -1 when absent.
func (t *Table) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// ColumnNames returns the ordered column names.
func (t *Table) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// UniqueValues returns the distinct non-NULL values of the named column in
// first-appearance order. This backs the agent's unique_column_values tool.
func (t *Table) UniqueValues(column string) ([]Value, error) {
	idx := t.ColumnIndex(column)
	if idx < 0 {
		return nil, fmt.Errorf("%w: column %q in table %q", ErrUnknownColumn, column, t.Name)
	}
	seen := make(map[string]bool)
	var out []Value
	for _, row := range t.Rows {
		v := row[idx]
		if v.IsNull() {
			continue
		}
		k := v.key()
		if !seen[k] {
			seen[k] = true
			out = append(out, v)
		}
	}
	return out, nil
}

// mergeKind widens a column type to accommodate a newly observed value kind.
func mergeKind(cur, next Kind) Kind {
	if next == KindNull {
		return cur
	}
	if cur == KindNull || cur == next {
		return next
	}
	if (cur == KindInt && next == KindFloat) || (cur == KindFloat && next == KindInt) {
		return KindFloat
	}
	return KindText
}

// Database is a named collection of tables. Catalog reads and writes are
// safe for concurrent use; the tables themselves must not be mutated after
// registration while queries run against them. (A table that gains rows
// after registration no longer matches its column image, and queries over
// it run on the row engine until it is registered again.)
type Database struct {
	Name string

	mu      sync.RWMutex
	tables  map[string]*catalogEntry
	order   []string
	version uint64 // bumped on every catalog change; guards cached plans
	// tableVers records, per (lowercased) table name, the catalog version at
	// which that table last changed. Entries persist across RemoveTable (a
	// removal is a change), so a plan compiled against a since-removed table
	// can never read a stale stamp of zero.
	tableVers map[string]uint64

	plans planCache // parsed-plan / prepared-statement cache (stmt_cache.go)

	schema atomic.Pointer[schemaText] // last rendered Schema text
}

// schemaText is a rendered Schema string and the catalog version it
// describes.
type schemaText struct {
	version uint64
	text    string
}

// NewDatabase constructs an empty database.
func NewDatabase(name string) *Database {
	return &Database{Name: name, tables: make(map[string]*catalogEntry), tableVers: make(map[string]uint64)}
}

// catalogEntry is one registered table together with its column image: the
// table's columns in Vec form, built once at registration so vectorized
// scans read them in place instead of rebuilding columns per query. The
// image is read-only; replacing or removing the table drops the entry and
// its image with it.
type catalogEntry struct {
	t     *Table
	image *tableImage
}

// tableImage is a table's read-only columnar form. rows is len(t.Rows) at
// build time: a table mutated after registration no longer matches it, and
// executors then fall back to the row engine rather than serve the image.
type tableImage struct {
	rows int
	cols []*Vec
}

// buildImage converts a table to columns under the storage rules every
// vectorized operator relies on: unboxed int/float storage when the column
// type is numeric, demoting to generic Values on the first mismatching cell.
func buildImage(t *Table) *tableImage {
	img := &tableImage{rows: len(t.Rows), cols: make([]*Vec, len(t.Columns))}
	for c, col := range t.Columns {
		v := NewVec(vecKindHint(col.Type), len(t.Rows))
		for _, row := range t.Rows {
			v.Append(row[c])
		}
		img.cols[c] = v
	}
	return img
}

// AddTable registers a table, replacing any previous table with the same
// (case-insensitive) name, and builds its column image for the vectorized
// executor (outside the lock: the table is not shared yet). Cached query
// plans that reference the table are invalidated: they may have bound
// column positions against the replaced schema. Plans over other tables
// stay cached.
func (d *Database) AddTable(t *Table) {
	e := &catalogEntry{t: t, image: buildImage(t)}
	d.mu.Lock()
	key := strings.ToLower(t.Name)
	if _, exists := d.tables[key]; !exists {
		d.order = append(d.order, key)
	}
	d.tables[key] = e
	d.version++
	if d.tableVers == nil {
		d.tableVers = make(map[string]uint64)
	}
	d.tableVers[key] = d.version
	d.mu.Unlock()
	d.plans.invalidate(key)
}

// RemoveTable drops the named table (case-insensitive) and invalidates
// cached plans referencing it. It reports whether the table existed.
func (d *Database) RemoveTable(name string) bool {
	d.mu.Lock()
	key := strings.ToLower(name)
	if _, exists := d.tables[key]; !exists {
		d.mu.Unlock()
		return false
	}
	delete(d.tables, key)
	for i, k := range d.order {
		if k == key {
			d.order = append(d.order[:i], d.order[i+1:]...)
			break
		}
	}
	d.version++
	if d.tableVers == nil {
		d.tableVers = make(map[string]uint64)
	}
	d.tableVers[key] = d.version
	d.mu.Unlock()
	d.plans.invalidate(key)
	return true
}

// Table returns the named table (case-insensitive), or nil when absent.
func (d *Database) Table(name string) *Table {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if e := d.tables[strings.ToLower(name)]; e != nil {
		return e.t
	}
	return nil
}

// resolveTable returns the named table, or nil and the table names
// registered at that same instant, read under one lock: an unknown-table
// error built from them never lists the table it reports missing.
func (d *Database) resolveTable(name string) (*Table, []string) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if e := d.tables[strings.ToLower(name)]; e != nil {
		return e.t, nil
	}
	return nil, d.tableNamesLocked()
}

// Version returns the catalog version, which increments on every AddTable
// and every successful RemoveTable. Cached plans are stamped with the
// version at which their tables last changed.
func (d *Database) Version() uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.version
}

// snapshotTables resolves the named catalog entries (table plus column
// image) and their combined change stamp in one atomic step, so a
// concurrent AddTable cannot hand an executor a table whose schema differs
// from the plan it is about to run, nor an image of a different table
// version. Absent tables resolve to nil. The stamp is the maximum per-table
// version over names: it moves only when one of the named tables changes, so
// churn on unrelated tables does not stale plans compiled against this set.
func (d *Database) snapshotTables(names []string) ([]*catalogEntry, uint64) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*catalogEntry, len(names))
	var stamp uint64
	for i, n := range names {
		key := strings.ToLower(n)
		out[i] = d.tables[key]
		if v := d.tableVers[key]; v > stamp {
			stamp = v
		}
	}
	return out, stamp
}

// stampFor returns the combined change stamp of the named tables: the
// maximum catalog version at which any of them last changed (zero when none
// ever existed). Names must already be lowercased.
func (d *Database) stampFor(names []string) uint64 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	var stamp uint64
	for _, n := range names {
		if v := d.tableVers[n]; v > stamp {
			stamp = v
		}
	}
	return stamp
}

// Tables returns all tables in registration order.
func (d *Database) Tables() []*Table {
	d.mu.RLock()
	defer d.mu.RUnlock()
	out := make([]*Table, 0, len(d.order))
	for _, k := range d.order {
		out = append(out, d.tables[k].t)
	}
	return out
}

// TableNames returns the registered table names in registration order.
func (d *Database) TableNames() []string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.tableNamesLocked()
}

func (d *Database) tableNamesLocked() []string {
	out := make([]string, 0, len(d.order))
	for _, k := range d.order {
		out = append(out, d.tables[k].t.Name)
	}
	return out
}

// Schema renders a compact CREATE TABLE description of every table, used to
// fill the {db_schema} placeholder of the verification prompt templates.
// The text is rendered once per catalog version and reused until a table is
// added, replaced or removed — or gains rows after registration, which can
// widen a column type.
func (d *Database) Schema() string {
	d.mu.RLock()
	ver, current := d.version, d.imagesCurrentLocked()
	if c := d.schema.Load(); current && c != nil && c.version == ver {
		d.mu.RUnlock()
		return c.text
	}
	tables := make([]*Table, 0, len(d.order))
	for _, k := range d.order {
		tables = append(tables, d.tables[k].t)
	}
	d.mu.RUnlock()

	var b strings.Builder
	for _, t := range tables {
		fmt.Fprintf(&b, "CREATE TABLE \"%s\" (", t.Name)
		for i, c := range t.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "\"%s\" %s", c.Name, c.Type)
		}
		b.WriteString(");\n")
	}
	text := b.String()
	if current {
		d.schema.Store(&schemaText{version: ver, text: text})
	}
	return text
}

// imagesCurrentLocked reports whether every registered table still has the
// row count its image was built with. Callers hold d.mu.
func (d *Database) imagesCurrentLocked() bool {
	for _, e := range d.tables {
		if len(e.t.Rows) != e.image.rows {
			return false
		}
	}
	return true
}

// SampleRows renders up to n example rows per table in a pipe-separated
// layout. Prompt templates like P1 ("Create Table + Select 3") include such
// samples to ground the model in actual data values.
func (d *Database) SampleRows(n int) string {
	var b strings.Builder
	for _, t := range d.Tables() {
		fmt.Fprintf(&b, "-- %s\n", t.Name)
		b.WriteString(strings.Join(t.ColumnNames(), " | "))
		b.WriteByte('\n')
		for i, row := range t.Rows {
			if i >= n {
				break
			}
			cells := make([]string, len(row))
			for j, v := range row {
				cells[j] = v.String()
			}
			b.WriteString(strings.Join(cells, " | "))
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TotalRows returns the number of rows across all tables, a size signal used
// by the TAPEX-style baseline whose flattening degrades with table size.
func (d *Database) TotalRows() int {
	n := 0
	for _, t := range d.Tables() {
		n += len(t.Rows)
	}
	return n
}

// AllColumnNames returns the sorted union of column names across tables.
func (d *Database) AllColumnNames() []string {
	set := make(map[string]bool)
	for _, t := range d.Tables() {
		for _, c := range t.Columns {
			set[c.Name] = true
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// LoadCSV reads a table from CSV data: the first record provides column
// names, subsequent records become rows with literal type inference.
func LoadCSV(name string, r io.Reader) (*Table, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("load csv %s: header: %w", name, err)
	}
	t := NewTable(name, header...)
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("load csv %s: %w", name, err)
		}
		row := make([]Value, len(t.Columns))
		for i := range row {
			if i < len(rec) {
				row[i] = inferLiteral(rec[i])
			} else {
				row[i] = Null()
			}
		}
		t.Rows = append(t.Rows, row)
		for i, v := range row {
			t.Columns[i].Type = mergeKind(t.Columns[i].Type, v.Kind())
		}
	}
	return t, nil
}
