package sqlmini

import (
	"testing"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
)

// noTxns is the transaction view of a table no transaction ever wrote.
type noTxns struct{}

func (noTxns) Lookup(scn.TxnID) (rowstore.TxnStatus, scn.SCN) { return rowstore.TxnUnknown, 0 }

// FuzzParseAndCompile feeds arbitrary statements, with one bind :v of either
// type, through the SQL front end against a three-column table: each must be
// refused with an error, or compile into a query that the scan engine's
// Explain and Run over the empty table accept or refuse with an error. None
// may panic.
func FuzzParseAndCompile(f *testing.F) {
	for _, src := range []string{
		// The bench's statement mix.
		"SELECT * FROM C101 WHERE n1 = :v",
		"SELECT * FROM C101 WHERE c1 = :v",
		"SELECT COUNT(*), SUM(n2), MIN(n3), MAX(n3) FROM C101 WHERE n1 < :v",
		"SELECT c1, COUNT(*), SUM(n1) FROM C101 GROUP BY c1",
		"EXPLAIN ANALYZE SELECT COUNT(*), MIN(id), MAX(n1) FROM C101 WHERE n1 < :v",
		"EXPLAIN SELECT id, c1 FROM c101 WHERE c1 >= 'b' AND id <> 3",
		"select n1, c1, count(*), sum(id) from C101 where id > :v group by n1, c1",
		"SELECT c1, MAX(n1) FROM C101 WHERE c1 != :v GROUP BY c1, n1, id",
	} {
		f.Add(src, int64(7), "val_0007", false)
		f.Add(src, int64(-1), "", true)
	}
	tbl := testTable(f)
	ex := scanengine.NewExecutor(noTxns{})
	f.Fuzz(func(t *testing.T, src string, num int64, str string, isStr bool) {
		q, err := ParseAndCompile(src, tbl, map[string]Bind{"v": {Num: num, Str: str, IsStr: isStr}})
		if err != nil {
			return
		}
		_, _ = ex.Explain(q, 1)
		_, _ = ex.Run(q, 1)
	})
}
