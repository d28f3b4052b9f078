package txn

import (
	"sync"
	"testing"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

func TestTableLifecycle(t *testing.T) {
	tbl := NewTable()
	if st, _ := tbl.Lookup(1); st != rowstore.TxnUnknown {
		t.Fatalf("unknown txn status = %v", st)
	}
	tbl.Begin(1)
	if st, _ := tbl.Lookup(1); st != rowstore.TxnActive {
		t.Fatalf("after Begin: %v", st)
	}
	tbl.Commit(1, 100)
	if st, s := tbl.Lookup(1); st != rowstore.TxnCommitted || s != 100 {
		t.Fatalf("after Commit: %v %d", st, s)
	}
	tbl.Begin(2)
	tbl.Abort(2)
	if st, _ := tbl.Lookup(2); st != rowstore.TxnAborted {
		t.Fatalf("after Abort: %v", st)
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestTableForget(t *testing.T) {
	tbl := NewTable()
	for i := scn.TxnID(1); i <= 100; i++ {
		tbl.Commit(i, scn.SCN(i))
	}
	tbl.Begin(200) // active transactions are never forgotten
	dropped := tbl.Forget(51)
	if dropped != 50 {
		t.Fatalf("Forget dropped %d, want 50", dropped)
	}
	if st, _ := tbl.Lookup(50); st != rowstore.TxnUnknown {
		t.Fatal("old committed txn not forgotten")
	}
	if st, s := tbl.Lookup(51); st != rowstore.TxnCommitted || s != 51 {
		t.Fatal("boundary txn (== horizon) must survive")
	}
	if st, _ := tbl.Lookup(200); st != rowstore.TxnActive {
		t.Fatal("active txn forgotten")
	}
}

func TestTableConcurrent(t *testing.T) {
	tbl := NewTable()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base := scn.TxnID(g * 10000)
			for i := scn.TxnID(1); i <= 1000; i++ {
				id := base + i
				tbl.Begin(id)
				if i%3 == 0 {
					tbl.Abort(id)
				} else {
					tbl.Commit(id, scn.SCN(id))
				}
				if st, _ := tbl.Lookup(id); st == rowstore.TxnUnknown {
					t.Errorf("lost txn %d", id)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if tbl.Len() != 8000 {
		t.Fatalf("Len = %d, want 8000", tbl.Len())
	}
}

// TestTableTerminalStatesAreFinal is the TxnView invariant readers cache
// commitSCNs under: once committed or aborted, a transaction stays so through
// a replayed begin, commit or abort.
func TestTableTerminalStatesAreFinal(t *testing.T) {
	tbl := NewTable()
	tbl.Begin(1)
	tbl.Commit(1, 100)
	tbl.Begin(1) // a replay from below the applied SCN re-applies the begin
	if st, s := tbl.Lookup(1); st != rowstore.TxnCommitted || s != 100 {
		t.Fatalf("Begin reopened a committed transaction: %v %d", st, s)
	}
	tbl.Abort(1)
	tbl.Commit(1, 200)
	if st, s := tbl.Lookup(1); st != rowstore.TxnCommitted || s != 100 {
		t.Fatalf("a committed transaction changed: %v %d", st, s)
	}
	tbl.Begin(2)
	tbl.Abort(2)
	tbl.Begin(2)
	tbl.Commit(2, 300)
	if st, _ := tbl.Lookup(2); st != rowstore.TxnAborted {
		t.Fatalf("an aborted transaction changed: %v", st)
	}
	if got := tbl.AbortActive(); len(got) != 0 {
		t.Fatalf("AbortActive found %v among finished transactions", got)
	}
}
