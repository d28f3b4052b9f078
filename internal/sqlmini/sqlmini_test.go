package sqlmini

import (
	"strings"
	"testing"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
)

func testTable(t testing.TB) *rowstore.Table {
	t.Helper()
	db := rowstore.NewDatabase(16)
	tbl, err := db.CreateTable(&rowstore.TableSpec{
		Name: "C101", Tenant: 1,
		Columns: []rowstore.Column{
			{Name: "id", Kind: rowstore.KindNumber},
			{Name: "n1", Kind: rowstore.KindNumber},
			{Name: "c1", Kind: rowstore.KindVarchar},
		},
		IdentityCol: 0, PartitionCol: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestParsePaperQ1(t *testing.T) {
	tbl := testTable(t)
	q, err := ParseAndCompile("SELECT * FROM C101 WHERE n1 = :1", tbl,
		map[string]Bind{"1": NumBind(42)})
	if err != nil {
		t.Fatal(err)
	}
	if q.Project != nil || q.Aggs != nil {
		t.Fatal("Q1 should be SELECT *")
	}
	if len(q.Filters) != 1 || q.Filters[0].Col != 1 || q.Filters[0].Op != scanengine.EQ || q.Filters[0].Num != 42 {
		t.Fatalf("filters: %+v", q.Filters)
	}
}

func TestParsePaperQ2(t *testing.T) {
	tbl := testTable(t)
	q, err := ParseAndCompile("SELECT * FROM C101 WHERE c1 = :2", tbl,
		map[string]Bind{"2": StrBind("val_0007")})
	if err != nil {
		t.Fatal(err)
	}
	if q.Filters[0].Str != "val_0007" {
		t.Fatalf("filters: %+v", q.Filters)
	}
}

func TestParseLiteralsAndOps(t *testing.T) {
	tbl := testTable(t)
	q, err := ParseAndCompile("select id, n1 from c101 where n1 >= 10 and c1 <> 'x'", tbl, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Project) != 2 || q.Project[0] != 0 || q.Project[1] != 1 {
		t.Fatalf("projection: %v", q.Project)
	}
	if len(q.Filters) != 2 {
		t.Fatalf("filters: %+v", q.Filters)
	}
	if q.Filters[0].Op != scanengine.GE || q.Filters[0].Num != 10 {
		t.Fatalf("filter 0: %+v", q.Filters[0])
	}
	if q.Filters[1].Op != scanengine.NE || q.Filters[1].Str != "x" {
		t.Fatalf("filter 1: %+v", q.Filters[1])
	}
}

func TestParseAggregates(t *testing.T) {
	tbl := testTable(t)
	cases := []struct {
		sql  string
		agg  scanengine.AggKind
		aCol int
	}{
		{"SELECT COUNT(*) FROM C101", scanengine.AggCount, 0},
		{"SELECT SUM(n1) FROM C101", scanengine.AggSum, 1},
		{"SELECT MIN(id) FROM C101 WHERE n1 < 5", scanengine.AggMin, 0},
		{"SELECT MAX(n1) FROM C101", scanengine.AggMax, 1},
	}
	for _, c := range cases {
		q, err := ParseAndCompile(c.sql, tbl, nil)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if want := (scanengine.AggSpec{Kind: c.agg, Col: c.aCol}); len(q.Aggs) != 1 || q.Aggs[0] != want {
			t.Fatalf("%s: aggs=%+v, want [%+v]", c.sql, q.Aggs, want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	tbl := testTable(t)
	bad := []string{
		"",
		"UPDATE C101 SET n1 = 1",
		"SELECT FROM C101",
		"SELECT * FROM",
		"SELECT * FROM C101 WHERE",
		"SELECT * FROM C101 WHERE n1",
		"SELECT * FROM C101 WHERE n1 LIKE 5",
		"SELECT * FROM C101 WHERE n1 = 'text'",
		"SELECT * FROM C101 WHERE c1 = 5",
		"SELECT * FROM C101 WHERE nope = 5",
		"SELECT * FROM C101 WHERE n1 = :missing",
		"SELECT * FROM C101 WHERE n1 = 'unterminated",
		"SELECT * FROM C101 extra",
		"SELECT SUM(c9) FROM C101",
		"SELECT * FROM OTHER WHERE n1 = 1",
	}
	for _, sql := range bad {
		if _, err := ParseAndCompile(sql, tbl, nil); err == nil {
			t.Errorf("accepted bad SQL: %q", sql)
		}
	}
}

// TestParseErrorMessages pins down the diagnostics: a user replaying a paper
// query should see what is wrong, not just that something is. Each case states
// the substring the error must carry.
func TestParseErrorMessages(t *testing.T) {
	tbl := testTable(t)
	cases := []struct {
		name string
		sql  string
		want string
	}{
		{"bare analyze", "ANALYZE SELECT * FROM C101",
			"ANALYZE requires EXPLAIN (use EXPLAIN ANALYZE)"},
		{"explain non-select", "EXPLAIN UPDATE C101 SET n1 = 1",
			"expected SELECT"},
		{"unknown projected column", "SELECT nope FROM C101",
			`no column "nope"`},
		{"unknown filter column", "SELECT * FROM C101 WHERE ghost = 5",
			`no column "ghost"`},
		{"unknown aggregate column", "SELECT SUM(c9) FROM C101",
			`no aggregate column "c9"`},
		{"unterminated literal", "SELECT * FROM C101 WHERE c1 = 'oops",
			"unterminated string literal"},
		{"unexpected character", "SELECT * FROM C101 WHERE n1 = #5",
			"unexpected character"},
		{"missing table", "SELECT * FROM",
			"missing table name"},
		{"trailing tokens", "SELECT * FROM C101 WHERE n1 = 1 ORDER",
			"trailing tokens"},
		{"bad operator", "SELECT * FROM C101 WHERE n1 LIKE 5",
			"bad comparison operator"},
		{"bad numeric literal", "SELECT * FROM C101 WHERE n1 = 12x4",
			"bad numeric literal"},
		{"string literal for number", "SELECT * FROM C101 WHERE n1 = 'five'",
			`string literal for NUMBER column "n1"`},
		{"numeric literal for varchar", "SELECT * FROM C101 WHERE c1 = 7",
			`numeric literal for VARCHAR2 column "c1"`},
		{"missing bind", "SELECT * FROM C101 WHERE n1 = :absent",
			"missing bind :absent"},
		{"wrong table", "SELECT * FROM OTHER",
			`statement targets "OTHER"`},
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

func TestBindTypeMismatch(t *testing.T) {
	tbl := testTable(t)
	if _, err := ParseAndCompile("SELECT * FROM C101 WHERE n1 = :b", tbl,
		map[string]Bind{"b": StrBind("x")}); err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("expected type mismatch, got %v", err)
	}
}
