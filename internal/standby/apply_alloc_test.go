package standby_test

import (
	"math/rand"
	"testing"

	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
	"dbimadg/internal/standby"
	"dbimadg/internal/testutil"
	"dbimadg/internal/workload"
)

// TestAllocsPerRunApplyCV: applying an update CV of the bench's table adds the
// row version and nothing else — the image is the CV's, handed over, and the
// delete path reads no image back.
func TestAllocsPerRunApplyCV(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	inst := standby.New(standby.Config{})
	tbl, err := inst.DB().CreateTable(workload.WideTableSpec("C101", 1))
	if err != nil {
		t.Fatal(err)
	}
	seg := tbl.Segments()[0]
	rng := rand.New(rand.NewSource(1))
	cv := redo.CV{
		Kind: redo.CVInsert, Txn: 7, Tenant: 1, DBA: rowstore.MakeDBA(seg.Obj(), 0), Slot: 3,
		Row: rowstore.Pack(workload.FillRow(tbl.Schema(), 3, rng)),
	}
	inst.ApplyCV(0, 10, &cv)
	for _, kind := range []redo.CVKind{redo.CVUpdate, redo.CVDelete} {
		cv.Kind, cv.ChangedCols = kind, []uint16{1}
		if kind == redo.CVDelete {
			cv.Row = ""
		}
		next := scn.SCN(11)
		allocs := testing.AllocsPerRun(200, func() {
			inst.ApplyCV(0, next, &cv)
			next++
		})
		if allocs > 1 {
			t.Errorf("%v CV applied with %.1f allocations, want the version alone", kind, allocs)
		}
	}
	if got := seg.Block(0).ChainLen(3); got < 400 {
		t.Fatalf("chain of %d versions: the CVs were not applied", got)
	}
}
