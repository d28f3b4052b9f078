package sqlmini

import (
	"strings"
	"testing"

	"dbimadg/internal/scanengine"
)

func TestParseGroupBy(t *testing.T) {
	tbl := testTable(t)
	q, err := ParseAndCompile(
		"SELECT c1, COUNT(*), SUM(n1) FROM C101 WHERE n1 >= 2 GROUP BY c1", tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if q.Project != nil {
		t.Fatalf("grouped query should not project: %+v", q)
	}
	want := []scanengine.AggSpec{{Kind: scanengine.AggCount}, {Kind: scanengine.AggSum, Col: 1}}
	if len(q.Aggs) != 2 || q.Aggs[0] != want[0] || q.Aggs[1] != want[1] {
		t.Fatalf("aggs: %+v", q.Aggs)
	}
	if len(q.GroupBy) != 1 || q.GroupBy[0] != 2 {
		t.Fatalf("group by: %v", q.GroupBy)
	}
	if len(q.Filters) != 1 || q.Filters[0].Op != scanengine.GE {
		t.Fatalf("filters: %+v", q.Filters)
	}
}

func TestParseGroupByMultipleKeysCaseInsensitive(t *testing.T) {
	tbl := testTable(t)
	q, err := ParseAndCompile(
		"select C1, N1, max(id) from c101 group by n1, c1", tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.GroupBy) != 2 || q.GroupBy[0] != 1 || q.GroupBy[1] != 2 {
		t.Fatalf("group by: %v", q.GroupBy)
	}
	if len(q.Aggs) != 1 || q.Aggs[0].Kind != scanengine.AggMax || q.Aggs[0].Col != 0 {
		t.Fatalf("aggs: %+v", q.Aggs)
	}
}

func TestParseMultiAggregateNoGroupBy(t *testing.T) {
	tbl := testTable(t)
	q, err := ParseAndCompile(
		"SELECT COUNT(*), SUM(n1), MIN(n1), MAX(id) FROM C101", tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggs) != 4 || q.Aggs[1].Col != 1 || q.Aggs[3].Col != 0 {
		t.Fatalf("aggs: %+v", q.Aggs)
	}
}

func TestParseSingleAggregateIsOneEntryList(t *testing.T) {
	tbl := testTable(t)
	q, err := ParseAndCompile("SELECT SUM(n1) FROM C101", tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Aggs) != 1 || q.Aggs[0] != (scanengine.AggSpec{Kind: scanengine.AggSum, Col: 1}) || q.Project != nil || q.GroupBy != nil {
		t.Fatalf("lone aggregate should compile to a one-entry aggregate list: %+v", q)
	}
}

func TestGroupByErrors(t *testing.T) {
	tbl := testTable(t)
	cases := []struct {
		name string
		sql  string
		want string
	}{
		{"ungrouped select column", "SELECT c1, COUNT(*) FROM C101",
			`column "c1" must appear in GROUP BY`},
		{"select column not in group by", "SELECT id, COUNT(*) FROM C101 GROUP BY c1",
			`column "id" must appear in GROUP BY`},
		{"group by without aggregate", "SELECT c1 FROM C101 GROUP BY c1",
			"GROUP BY requires an aggregate"},
		{"star with group by", "SELECT * FROM C101 GROUP BY c1",
			"SELECT * cannot be combined with GROUP BY"},
		{"empty group by list", "SELECT c1, COUNT(*) FROM C101 GROUP BY",
			"bad GROUP BY list"},
		{"unknown group by column", "SELECT COUNT(*) FROM C101 GROUP BY nope",
			`no column "nope"`},
		{"unknown grouped aggregate column", "SELECT c1, SUM(c9) FROM C101 GROUP BY c1",
			`no aggregate column "c9"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseAndCompile(c.sql, tbl, nil)
			if err == nil {
				t.Fatalf("accepted bad SQL: %q", c.sql)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("%q: error %q does not mention %q", c.sql, err, c.want)
			}
			if !strings.HasPrefix(err.Error(), "sqlmini: ") {
				t.Fatalf("%q: error %q missing package prefix", c.sql, err)
			}
		})
	}
}
