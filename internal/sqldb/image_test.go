package sqldb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// image_test.go covers the column images vectorized scans read in place:
// chunked scans over views of an image agree with the row oracle at every
// chunk size, no operator writes into a shared image, and the catalog never
// pairs a plan with the image of another table version.

// chunkSizes are the scan chunk sizes the chunked differential runs next to
// the default: every harness table spans several chunks at these sizes.
var chunkSizes = []int{1, 3, 7}

// checkChunked runs one statement through the vectorized engine at every
// chunk size and asserts (1) chunking never changes the vectorized outcome —
// result or error text — against the default batch size, so the production
// fallback cannot hide a chunking bug, and (2) the chunked path with the
// production fallback (vectorized, else the row engine) equals the row
// oracle exactly: columns, row order, cells and error text.
func checkChunked(t *testing.T, db *Database, sql string) {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		return
	}
	rowRes, rowErr := Exec(db, stmt)
	defRes, defErr := ExecVecBatch(db, stmt, 0)
	for _, bs := range chunkSizes {
		res, err := ExecVecBatch(db, stmt, bs)
		if (err == nil) != (defErr == nil) || (err != nil && err.Error() != defErr.Error()) {
			t.Fatalf("batch %d changes the vectorized outcome:\nsql: %q\ndefault err: %v\nbatch err:   %v", bs, sql, defErr, err)
		}
		if err == nil && !sameResult(res, defRes) {
			t.Fatalf("batch %d result differs from the default batch:\nsql: %q\ndefault:\n%s\nbatch:\n%s", bs, sql, defRes.String(), res.String())
		}
		if err != nil {
			res, err = Exec(db, stmt)
		}
		switch {
		case rowErr != nil:
			if err == nil || err.Error() != rowErr.Error() {
				t.Fatalf("batch %d error differs from the row oracle's:\nsql: %q\nrow:   %v\nbatch: %v", bs, sql, rowErr, err)
			}
		case err != nil:
			t.Fatalf("batch %d errored where the row oracle succeeds:\nsql: %q\nerr: %v", bs, sql, err)
		case !sameResult(rowRes, res):
			t.Fatalf("batch %d result differs from the row oracle:\nsql: %q\nrow:\n%s\nbatch:\n%s", bs, sql, rowRes.String(), res.String())
		}
	}
}

// TestDifferentialChunked runs the stored corpus (on both fixture catalogs)
// and the generated query stream through multi-chunk vectorized scans, then
// checks that no operator wrote into a table's column image along the way.
func TestDifferentialChunked(t *testing.T) {
	queries := corpusQueries(t)
	for _, db := range []*Database{fuzzFixtureDB(), diffDB()} {
		for _, q := range queries {
			checkChunked(t, db, q)
		}
		checkImagesIntact(t, db)
	}
	g := &qgen{rng: rand.New(rand.NewSource(20260808))}
	db := diffDB()
	for i := 0; i < 1500; i++ {
		checkChunked(t, db, g.query())
	}
	checkImagesIntact(t, db)
}

// vecIdentical reports whether two vectors have the same storage kind,
// length and contents, comparing floats by bit pattern.
func vecIdentical(a, b *Vec) bool {
	if a.kind != b.kind || a.Len() != b.Len() {
		return false
	}
	for i, n := 0, a.Len(); i < n; i++ {
		switch a.kind {
		case KindInt:
			if a.nulls[i] != b.nulls[i] || a.ints[i] != b.ints[i] {
				return false
			}
		case KindFloat:
			if a.nulls[i] != b.nulls[i] || math.Float64bits(a.floats[i]) != math.Float64bits(b.floats[i]) {
				return false
			}
		default:
			x, y := a.any[i], b.any[i]
			if x.kind != y.kind || x.i != y.i || math.Float64bits(x.f) != math.Float64bits(y.f) || x.s != y.s || x.b != y.b {
				return false
			}
		}
	}
	return true
}

// checkImagesIntact asserts every registered table's image still equals one
// freshly built from its rows.
func checkImagesIntact(t *testing.T, db *Database) {
	t.Helper()
	db.mu.RLock()
	defer db.mu.RUnlock()
	for name, e := range db.tables {
		fresh := buildImage(e.t)
		if e.image.rows != fresh.rows || len(e.image.cols) != len(fresh.cols) {
			t.Fatalf("table %s: image shape %d rows x %d cols, fresh %d x %d", name, e.image.rows, len(e.image.cols), fresh.rows, len(fresh.cols))
		}
		for c := range fresh.cols {
			if !vecIdentical(e.image.cols[c], fresh.cols[c]) {
				t.Fatalf("table %s column %d: image was written to by an operator", name, c)
			}
		}
	}
}

// TestImageDroppedWithTable pins that an image lives and dies with its
// catalog entry: a replacement carries the new table's image, and removal
// leaves nothing behind, however many tables churn through.
func TestImageDroppedWithTable(t *testing.T) {
	db := NewDatabase("churn")
	v1 := NewTable("T", "a")
	v1.MustAppendRow(Int(1))
	db.AddTable(v1)
	v2 := NewTable("t", "a", "b")
	v2.MustAppendRow(Int(2), Text("x"))
	v2.MustAppendRow(Int(3), Text("y"))
	db.AddTable(v2)
	e := db.tables["t"]
	if len(db.tables) != 1 || e.t != v2 || e.image.rows != 2 || len(e.image.cols) != 2 {
		t.Fatalf("replacement: %d entries, image %d rows x %d cols; want 1 entry holding the new table's 2x2 image",
			len(db.tables), e.image.rows, len(e.image.cols))
	}
	if !db.RemoveTable("t") || len(db.tables) != 0 {
		t.Fatalf("removal left %d catalog entries", len(db.tables))
	}
	for i := 0; i < 100; i++ {
		tab := NewTable(fmt.Sprintf("tmp%d", i), "a")
		tab.MustAppendRow(Int(int64(i)))
		db.AddTable(tab)
		if _, err := Query(db, fmt.Sprintf("SELECT SUM(a) FROM tmp%d", i)); err != nil {
			t.Fatal(err)
		}
		db.RemoveTable(tab.Name)
	}
	if len(db.tables) != 0 || len(db.order) != 0 {
		t.Fatalf("catalog churn left %d entries (%d ordered)", len(db.tables), len(db.order))
	}
}

// TestImageStaleAfterAppend pins the fallback for a table mutated after
// registration (against Database's contract): the vectorized run reports a
// stale plan instead of serving the old image, and Query answers from the
// live rows exactly as the row engine does.
func TestImageStaleAfterAppend(t *testing.T) {
	db := NewDatabase("mut")
	tab := NewTable("t", "k", "v")
	tab.MustAppendRow(Text("a"), Int(1))
	tab.MustAppendRow(Text("b"), Int(2))
	db.AddTable(tab)
	const q = `SELECT COUNT(*), SUM(v) FROM t WHERE k = 'a'`
	if res, err := Query(db, q); err != nil || res.Rows[0][1].String() != "1" {
		t.Fatalf("before append: %v %v", res, err)
	}
	tab.MustAppendRow(Text("a"), Float(2.5))

	stmt, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compilePlan(db, stmt).run(db); !errors.Is(err, errPlanStale) {
		t.Fatalf("vectorized run over a mutated table: err = %v, want errPlanStale", err)
	}
	want, err := Exec(db, stmt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Query(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(want, got) || got.Rows[0][1].String() != "3.5" {
		t.Fatalf("after append: Query = %s, row engine = %s (want SUM 3.5)", got.String(), want.String())
	}
}

// TestImageCatalogRaceStress races Query, chunked vectorized runs and
// Schema against AddTable/RemoveTable of the same table name from 32
// goroutines.
// Every table version stamps its rows with its version number, so each
// result names the version it ran on and must equal the row engine's result
// over exactly that version; a run against the removed table must fail with
// the row engine's unknown-table error.
func TestImageCatalogRaceStress(t *testing.T) {
	const versions = 6
	queries := []string{
		`SELECT MIN(ver), COUNT(*), SUM(x), AVG(f) FROM t WHERE g = 'a'`,
		`SELECT ver, x, f FROM t WHERE x >= 1 ORDER BY x DESC`,
		`SELECT t.ver, s.name FROM t JOIN s ON t.x = s.x WHERE t.g = 'a' ORDER BY 2`,
		`SELECT MAX(ver), COUNT(*) FROM t WHERE 'b' = g AND f < 100`,
	}

	side := NewTable("s", "x", "name")
	for i := 0; i < 12; i++ {
		side.MustAppendRow(Int(int64(i)), Text(fmt.Sprintf("n%02d", i)))
	}
	tables := make([]*Table, versions)
	want := make([][]*Result, versions)
	for k := range tables {
		tab := NewTable("t", "g", "x", "ver", "f")
		for i := 0; i < k+3; i++ {
			tab.MustAppendRow(Text([]string{"a", "b"}[i%2]), Int(int64(i)), Int(int64(k)), Float(float64(i)*0.5+float64(k)))
		}
		tables[k] = tab
		ref := NewDatabase("ref")
		ref.AddTable(side)
		ref.AddTable(tab)
		for _, q := range queries {
			stmt, err := Parse(q)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Exec(ref, stmt)
			if err != nil {
				t.Fatalf("reference %q on version %d: %v", q, k, err)
			}
			want[k] = append(want[k], res)
		}
	}
	// The unknown-table error resolves the table and lists the available
	// ones under one catalog read, so its text is exact even under churn.
	const goneErr = `sqldb: unknown table: "t" (available: s)`

	db := NewDatabase("stress")
	db.AddTable(side)
	schemas := []string{db.Schema(), ""}
	db.AddTable(tables[0])
	schemas[1] = db.Schema()

	// check matches one result against the reference of the version it
	// names in its first column.
	check := func(qi int, res *Result) error {
		if len(res.Rows) == 0 {
			return fmt.Errorf("%q: no rows", queries[qi])
		}
		k, ok := res.Rows[0][0].AsInt()
		if !ok || k < 0 || k >= versions {
			return fmt.Errorf("%q: unidentifiable version %v", queries[qi], res.Rows[0][0])
		}
		if !sameResult(want[k][qi], res) {
			return fmt.Errorf("%q: result over version %d differs from the row engine's:\n%s\nwant:\n%s", queries[qi], k, res.String(), want[k][qi].String())
		}
		return nil
	}

	stmts := make([]*SelectStmt, len(queries))
	for i, q := range queries {
		stmts[i], _ = Parse(q)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 150; i++ {
				if w%4 == 0 { // 8 writers
					if rng.Intn(3) == 0 {
						db.RemoveTable("t")
					} else {
						db.AddTable(tables[rng.Intn(versions)])
					}
					continue
				}
				qi := rng.Intn(len(queries))
				if w%4 == 2 { // every version of t has one schema
					if sch := db.Schema(); sch != schemas[0] && sch != schemas[1] {
						errs <- fmt.Errorf("Schema() = %q, want one of %q", sch, schemas)
						return
					}
				}
				if w%4 == 1 { // chunked vectorized runs: errors mean fallback
					if res, err := ExecVecBatch(db, stmts[qi], 1+rng.Intn(3)); err == nil {
						if err := check(qi, res); err != nil {
							errs <- err
							return
						}
					}
					continue
				}
				res, err := Query(db, queries[qi])
				if err != nil {
					if !errors.Is(err, ErrUnknownTable) || err.Error() != goneErr {
						errs <- fmt.Errorf("%q: unexpected error %v", queries[qi], err)
						return
					}
					continue
				}
				if err := check(qi, res); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	checkImagesIntact(t, db)
}

// renderSchema is the uncached Schema rendering, for comparison.
func renderSchema(db *Database) string {
	var b strings.Builder
	for _, t := range db.Tables() {
		fmt.Fprintf(&b, "CREATE TABLE \"%s\" (", t.Name)
		for i, c := range t.Columns {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "\"%s\" %s", c.Name, c.Type)
		}
		b.WriteString(");\n")
	}
	return b.String()
}

// TestSchemaTracksCatalog pins that the Schema text, rendered once per
// catalog version, follows every add, replace and remove, and a column type
// widened by rows appended after registration.
func TestSchemaTracksCatalog(t *testing.T) {
	db := NewDatabase("schema")
	a := NewTable("a", "k", "v")
	a.MustAppendRow(Text("x"), Int(1))
	steps := []func(){
		func() { db.AddTable(a) },
		func() {
			b := NewTable("b", "w")
			b.MustAppendRow(Float(2.5))
			db.AddTable(b)
		},
		func() { a.MustAppendRow(Text("y"), Float(1.5)) }, // v widens to REAL
		func() { db.AddTable(NewTable("A", "only")) },
		func() { db.RemoveTable("b") },
	}
	for i, step := range steps {
		step()
		for rep := 0; rep < 2; rep++ {
			if got, want := db.Schema(), renderSchema(db); got != want {
				t.Fatalf("step %d (call %d): Schema() = %q, want %q", i, rep, got, want)
			}
		}
	}
}

// TestUnknownTableErrorUnderChurn: while other goroutines drop and re-add
// tables, an unknown-table error must describe one catalog state — the
// table it reports missing is never among the tables it lists as available.
func TestUnknownTableErrorUnderChurn(t *testing.T) {
	names := []string{"a", "b", "c"}
	tables := make([]*Table, len(names))
	db := NewDatabase("churn")
	for i, n := range names {
		tables[i] = NewTable(n, "x")
		tables[i].MustAppendRow(Int(int64(i)))
		db.AddTable(tables[i])
	}
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 24; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400; i++ {
				k := rng.Intn(len(names))
				if w%3 == 0 { // 8 writers
					if !db.RemoveTable(names[k]) {
						db.AddTable(tables[k])
					}
					continue
				}
				_, err := Query(db, "SELECT x FROM "+names[k])
				if err == nil {
					continue
				}
				msg := err.Error()
				open := strings.Index(msg, "(available: ")
				if !errors.Is(err, ErrUnknownTable) || open < 0 || !strings.HasSuffix(msg, ")") {
					errs <- fmt.Errorf("unexpected error %v", err)
					return
				}
				for _, avail := range strings.Split(msg[open+len("(available: "):len(msg)-1], ", ") {
					if avail == names[k] {
						errs <- fmt.Errorf("error lists its own table as available: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
