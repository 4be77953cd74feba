package exp

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestRouteBenchExperiment(t *testing.T) {
	res, err := RouteBench(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoutingAccuracy < 0.9 {
		t.Fatalf("routing accuracy %.3f below the 0.9 acceptance floor", res.RoutingAccuracy)
	}
	if len(res.Rows) != 2 || res.Rows[0].Mode != "routed" || res.Rows[1].Mode != "home-db" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	routed, base := res.Rows[0], res.Rows[1]
	if routed.SubClaims != res.SubClaims || routed.RouteDollars <= 0 {
		t.Errorf("routed row fee accounting: %+v", routed)
	}
	if base.SubClaims != 0 || base.RouteDollars != 0 {
		t.Errorf("baseline row booked routing work: %+v", base)
	}
	q := routed.Quality
	if got := q.TP + q.FP + q.FN + q.TN + q.Failed; got != res.Claims {
		t.Errorf("routed partition: %d cells, %d claims", got, res.Claims)
	}
	// Routing is the point: it must flag more of the planted incorrect
	// conjuncts than verifying compound claims whole against the wrong
	// database.
	if routed.Quality.F1 <= base.Quality.F1 {
		t.Errorf("routed F1 %.3f not above home-db baseline %.3f", routed.Quality.F1, base.Quality.F1)
	}
	if res.BaseSchedule == "" {
		t.Error("base schedule not reported")
	}

	if !strings.Contains(res.Render(), "routing accuracy") {
		t.Error("render missing accuracy line")
	}
	if !strings.Contains(res.CSV(), "route_dollars") {
		t.Error("csv missing header")
	}
	blob, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Experiment      string  `json:"experiment"`
		RoutingAccuracy float64 `json:"routing_accuracy"`
	}
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Experiment != "routebench" || decoded.RoutingAccuracy != res.RoutingAccuracy {
		t.Errorf("json round-trip: %+v", decoded)
	}
}
