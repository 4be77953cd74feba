package sqldb

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchDB mirrors the fact/dim shape exp.SQLBench measures, at a fixed
// cardinality, so `go test -bench` can profile the engines directly.
func benchDB(n int) *Database {
	rng := rand.New(rand.NewSource(7))
	db := NewDatabase("bench")
	dimN := n / 8
	dim := NewTable("dim", "k", "name", "w")
	for i := 0; i < dimN; i++ {
		dim.MustAppendRow(Int(int64(i)), Text(fmt.Sprintf("d%03d", i%97)), Float(rng.Float64()*100))
	}
	db.AddTable(dim)
	fact := NewTable("fact", "id", "k", "v")
	for i := 0; i < n; i++ {
		k := Value(Int(int64(rng.Intn(dimN + dimN/4))))
		if rng.Intn(50) == 0 {
			k = Null()
		}
		fact.MustAppendRow(Int(int64(i)), k, Float(rng.Float64()*1000-200))
	}
	db.AddTable(fact)
	return db
}

const benchJoinAgg = `SELECT d.name, COUNT(*), SUM(f.v) FROM fact f JOIN dim d ON f.k = d.k GROUP BY d.name ORDER BY 2 DESC, 1`

func BenchmarkJoinAggRow(b *testing.B) {
	db := benchDB(16000)
	stmt, err := Parse(benchJoinAgg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Exec(db, stmt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkJoinAggVecWarm(b *testing.B) {
	db := benchDB(16000)
	if _, err := Query(db, benchJoinAgg); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Query(db, benchJoinAgg); err != nil {
			b.Fatal(err)
		}
	}
}

// aggCheckerDB mirrors the shape of the served agg-batch workload's drinks
// table: a text entity key plus integer and float measures, 40 rows.
func aggCheckerDB() *Database {
	rng := rand.New(rand.NewSource(11))
	db := NewDatabase("drinks")
	t := NewTable("drinks", "country", "beer_servings", "spirit_servings", "wine_servings", "total_litres_of_pure_alcohol")
	for i := 0; i < 40; i++ {
		t.MustAppendRow(Text(fmt.Sprintf("Country %02d", i)),
			Int(int64(20+rng.Intn(360))), Int(int64(10+rng.Intn(290))), Int(int64(5+rng.Intn(365))),
			Float(float64(int64((0.5+rng.Float64()*14)*100))/100))
	}
	db.AddTable(t)
	return db
}

// BenchmarkAggCheckerScalar runs the AggChecker-style scalar aggregates a
// verification attempt ends in — SUM/AVG/COUNT/MAX under a text-equality
// WHERE — through the production Query path (warm plan cache).
func BenchmarkAggCheckerScalar(b *testing.B) {
	db := aggCheckerDB()
	queries := []string{
		`SELECT SUM(beer_servings) FROM drinks WHERE country = 'Country 07'`,
		`SELECT AVG(total_litres_of_pure_alcohol) FROM drinks WHERE country = 'Country 21'`,
		`SELECT COUNT(*) FROM drinks WHERE country = 'Country 33'`,
		`SELECT MAX(wine_servings) FROM drinks WHERE country = 'Country 12'`,
	}
	for _, q := range queries {
		if _, err := QueryScalar(db, q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := QueryScalar(db, queries[i%len(queries)]); err != nil {
			b.Fatal(err)
		}
	}
}
