package standby_test

import (
	"errors"
	"testing"
	"time"

	"dbimadg/internal/imcs"
	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scn"
	"dbimadg/internal/standby"
	"dbimadg/internal/transport"
)

// TestReplayedBeginKeepsCommit replays redo the standby has already applied:
// a standby rebuilt over the replica at an SCN below its watermark, as a
// switchover's is, re-applies the begin and the changes of a transaction the
// row store and the transaction table hold as committed, and — the replacement
// source ending just short of the commit record — stays there, as a replay
// does for as long as it has not reached the commit again. The transaction
// must stay committed and its rows visible at the snapshots that showed them
// before: readers have cached its commitSCN on its row versions.
func TestReplayedBeginKeepsCommit(t *testing.T) {
	p := newPair(t, 1, standby.Config{}, "standby")
	p.insert(t, 0, 200)
	resume := p.catchUp(t)
	if !p.sby.Engine().WaitIdle(10 * time.Second) {
		t.Fatal("population did not settle")
	}
	// The rebuilt standby goes live at resume: keep it readable.
	snaps := rowstore.SnapshotsOf(p.sby.Txns())
	if err := snaps.Pin(resume); err != nil {
		t.Fatal(err)
	}
	defer snaps.Unpin(resume)

	s := p.tbl.Schema()
	tx := p.pri.Instance(0).Begin()
	id := tx.ID()
	for row := int64(0); row < 200; row += 7 {
		if err := tx.UpdateByID(p.tbl, row, []uint16{1}, func(r *rowstore.Row) {
			r.Nums[s.Col(1).Slot()] = 5000 + row
		}); err != nil {
			t.Fatal(err)
		}
	}
	commitSCN, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	snap := p.catchUp(t)
	pure := scanengine.NewExecutor(p.sby.Txns())
	want := scanKey(t, pure, p.sbyTable(t), snap)

	// The log again, up to but not including the commit record.
	full := p.pri.Instance(0).Stream()
	short := redo.NewStream(full.Thread())
	for i := 0; ; i++ {
		rec, ok := full.At(i)
		if !ok || rec.SCN >= commitSCN {
			break
		}
		short.Append(rec)
	}
	if short.LastSCN() <= resume {
		t.Fatalf("nothing to replay: log ends at %d, resume at %d", short.LastSCN(), resume)
	}
	p.sby.Stop()
	re := standby.NewFrom(standby.Config{RowsPerBlock: 32, BlocksPerIMCU: 8}, p.sby.DB(), p.sby.Txns(), p.sby.Services(), resume)
	if err := re.Restart(transport.NewInProc(short)); err != nil {
		t.Fatal(err)
	}
	defer re.Stop()
	if !re.WaitForSCN(short.LastSCN(), 10*time.Second) {
		t.Fatalf("replay did not reach %d: QuerySCN=%d", short.LastSCN(), re.QuerySCN())
	}
	if st, c := re.Txns().Lookup(id); st != rowstore.TxnCommitted || c != commitSCN {
		t.Fatalf("after its begin was replayed the transaction is %v at %d, want committed at %d", st, c, commitSCN)
	}
	if got := scanKey(t, pure, p.sbyTable(t), snap); got != want {
		t.Fatalf("row-store scan at %d changed under the replay:\n%s\nwant\n%s", snap, got, want)
	}
}

// resumeAt is a redo source that serves records from SCN at on, as a TCP
// receiver dialed there does.
type resumeAt struct {
	transport.Source
	at scn.SCN
}

func (r resumeAt) ResumeSCN() scn.SCN { return r.at }

// TestInstallRefusals walks every refusal of Install to the value its caller
// sees: Install itself, which provisions a fleet reader from its master's
// images, or Restart, which installs the empty snapshot at the watermark. A
// standby holds images of its store captured at b below its stopped watermark
// w; each row arranges the reclaim floor or the source, calls one of them, and
// wants the SCN the store goes live at or the error. No refusal may leave a pin
// behind.
func TestInstallRefusals(t *testing.T) {
	type env struct {
		p       *pair
		b, w    scn.SCN
		images  []imcs.UnitImage // captured at b
		release func()           // drops the pin that holds b, as a reader's would
	}
	// install calls Install into a fresh store and, as its caller, releases
	// the pin a success leaves.
	install := func(e env, at scn.SCN, images []imcs.UnitImage, from scn.SCN) (scn.SCN, error) {
		snaps := rowstore.SnapshotsOf(e.p.sby.Txns())
		err := standby.Install(imcs.NewStore(), snaps, at, images, from, e.w)
		if err == nil {
			snaps.Unpin(at)
		}
		return at, err
	}
	restart := func(e env, from scn.SCN) (scn.SCN, error) {
		err := e.p.sby.Restart(resumeAt{transport.NewInProc(e.p.pri.Instance(0).Stream()), from})
		q := e.p.sby.QuerySCN()
		e.p.sby.Stop()
		return q, err
	}
	newest := func(e env) scn.SCN { return e.b }
	watermark := func(e env) scn.SCN { return e.w }
	for _, tc := range []struct {
		name  string
		run   func(t *testing.T, e env) (scn.SCN, error)
		start func(env) scn.SCN
		err   error
	}{
		{name: "newest", start: newest,
			run: func(t *testing.T, e env) (scn.SCN, error) { return install(e, e.b, e.images, 0) }},
		{name: "restart at the watermark", start: watermark,
			run: func(t *testing.T, e env) (scn.SCN, error) { return restart(e, 0) }},
		{name: "below the reclaim floor: pin refused", err: rowstore.ErrSnapshotTooOld,
			run: func(t *testing.T, e env) (scn.SCN, error) {
				e.release()
				rowstore.SnapshotsOf(e.p.sby.Txns()).Reclaim(e.w)
				return install(e, e.b, e.images, 0)
			}},
		{name: "below the source's resume point - 1", err: standby.ErrArchiveWindow,
			run: func(t *testing.T, e env) (scn.SCN, error) { return install(e, e.b, e.images, e.b+2) }},
		{name: "above the limit", err: errAny,
			run: func(t *testing.T, e env) (scn.SCN, error) { return install(e, e.w+100, e.images, 0) }},
		{name: "overlapping image", err: errAny,
			run: func(t *testing.T, e env) (scn.SCN, error) {
				return install(e, e.b, append(e.images, e.images[0]), 0)
			}},
		{name: "empty snapshot below the reclaim floor too", err: rowstore.ErrSnapshotTooOld,
			run: func(t *testing.T, e env) (scn.SCN, error) {
				e.release()
				rowstore.SnapshotsOf(e.p.sby.Txns()).Reclaim(e.w + 1)
				return restart(e, 0)
			}},
		{name: "empty snapshot past the source too", err: standby.ErrArchiveWindow,
			run: func(t *testing.T, e env) (scn.SCN, error) { return restart(e, e.w+2) }},
		{name: "image fails validation", err: errAny,
			run: func(t *testing.T, e env) (scn.SCN, error) { return install(e, e.w, []imcs.UnitImage{{}}, 0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t, 1, standby.Config{}, "standby")
			p.insert(t, 0, 200)
			p.catchUp(t)
			if !p.sby.Engine().WaitIdle(10 * time.Second) {
				t.Fatal("population did not settle")
			}
			snaps := rowstore.SnapshotsOf(p.sby.Txns())
			e := env{p: p}
			var pinErr error
			p.sby.WithQuiesceShared(func() {
				e.b = p.sby.QuerySCN()
				e.images = p.sby.Store().CaptureImages()
				pinErr = snaps.Pin(e.b)
			})
			if pinErr != nil || len(e.images) == 0 {
				t.Fatalf("capture at %d: %d images, pin: %v", e.b, len(e.images), pinErr)
			}
			held := true
			e.release = func() {
				if held {
					snaps.Unpin(e.b)
					held = false
				}
			}
			p.insert(t, 200, 250)
			p.catchUp(t)
			e.w = p.sby.Stop()
			start, err := tc.run(t, e)
			switch {
			case tc.err == errAny && err == nil, tc.err != errAny && !errors.Is(err, tc.err):
				t.Fatalf("error %v, want %v", err, tc.err)
			case tc.err == nil && start != tc.start(e):
				t.Fatalf("live at SCN %d, want %d (b=%d w=%d)", start, tc.start(e), e.b, e.w)
			}
			e.release()
			if h := e.w + 1000; snaps.Reclaim(h) != h {
				t.Fatalf("a pin stays below %d after the install", h)
			}
		})
	}
}

// errAny stands for any error in TestInstallRefusals.
var errAny = errors.New("any error")
