package transport

import (
	"net"
	"testing"
	"time"

	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
	"dbimadg/internal/testutil"
)

func mkStream(thread uint16, scns ...scn.SCN) *redo.Stream {
	s := redo.NewStream(thread)
	for _, v := range scns {
		s.Append(&redo.Record{SCN: v, Thread: thread, CVs: []redo.CV{{
			Kind: redo.CVInsert, Txn: 1, DBA: rowstore.MakeDBA(1, 0),
			Row: rowstore.Pack(rowstore.Row{Nums: []int64{int64(v)}}),
		}}})
	}
	return s
}

func TestInProc(t *testing.T) {
	s1 := mkStream(1, 1, 2, 3)
	src := NewInProc(s1)
	if len(src.Streams()) != 1 || src.Streams()[0] != s1 {
		t.Fatal("in-proc source does not expose the stream")
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
}

func drain(t *testing.T, s *redo.Stream, want int, timeout time.Duration) []*redo.Record {
	t.Helper()
	var out []*redo.Record
	rd := redo.NewReader(s, 0)
	testutil.WaitFor(timeout, 0, func() bool {
		for {
			rec, ok, eol := rd.TryNext()
			if !ok {
				return eol // end of log stops the wait; otherwise poll again
			}
			out = append(out, rec)
			if len(out) >= want {
				return true
			}
		}
	})
	return out
}

func TestTCPShipsRecords(t *testing.T) {
	s1 := mkStream(1, 10, 20, 30)
	s2 := mkStream(2, 15, 25)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, s1, s2)
	defer srv.Close()

	rcv, err := Connect(srv.Addr(), []uint16{1, 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	m1 := drain(t, rcv.Streams()[0], 3, 5*time.Second)
	m2 := drain(t, rcv.Streams()[1], 2, 5*time.Second)
	if len(m1) != 3 || len(m2) != 2 {
		t.Fatalf("mirrored %d/%d records, want 3/2", len(m1), len(m2))
	}
	if m1[2].SCN != 30 || m1[2].CVs[0].Row.Num(0) != 30 {
		t.Fatalf("record content mangled: %+v", m1[2])
	}
	// Live append flows through.
	s1.Append(&redo.Record{SCN: 40, Thread: 1})
	if got := drain(t, rcv.Streams()[0], 4, 5*time.Second); len(got) != 4 || got[3].SCN != 40 {
		t.Fatalf("live record not shipped: %d", len(got))
	}
}

// TestTrimmedMirrorResumeSCN: a receiver serves from the SCN it was dialed at
// until its consumer releases mirror records; from then on from just past the
// newest one released, and its held count drops to the backlog.
func TestTrimmedMirrorResumeSCN(t *testing.T) {
	s1 := mkStream(1, 10, 20, 30, 40)
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := NewServer(ln, s1)
	defer srv.Close()
	rcv, err := Connect(srv.Addr(), []uint16{1}, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	mirror := rcv.Streams()[0]
	if got := drain(t, mirror, 4, 5*time.Second); len(got) != 4 {
		t.Fatalf("mirrored %d records, want 4", len(got))
	}
	if rs := rcv.ResumeSCN(); rs != 5 {
		t.Fatalf("untrimmed ResumeSCN = %d, want the dial SCN 5", rs)
	}
	mirror.Release(2)
	if rs, n := rcv.ResumeSCN(), mirror.Len(); rs != 21 || n != 4 {
		t.Fatalf("after releasing two records: ResumeSCN %d, Len %d; want 21, 4", rs, n)
	}
	mirror.Release(4)
	if rs := rcv.ResumeSCN(); rs != 41 {
		t.Fatalf("after releasing all: ResumeSCN %d, want 41", rs)
	}
	if n, _ := rcv.Held(); n != 0 {
		t.Fatalf("a drained mirror holds %d records", n)
	}
}

func TestTCPReattachAtSCN(t *testing.T) {
	s1 := mkStream(1, 10, 20, 30, 40)
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := NewServer(ln, s1)
	defer srv.Close()

	rcv, err := Connect(srv.Addr(), []uint16{1}, 25)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	got := drain(t, rcv.Streams()[0], 2, 5*time.Second)
	if len(got) != 2 || got[0].SCN != 30 || got[1].SCN != 40 {
		t.Fatalf("reattach shipped wrong records: %+v", got)
	}
}

func TestTCPEndOfLog(t *testing.T) {
	s1 := mkStream(1, 1, 2)
	s1.Close()
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := NewServer(ln, s1)
	defer srv.Close()
	rcv, err := Connect(srv.Addr(), []uint16{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	// Mirror must close after draining both records.
	rd := redo.NewReader(rcv.Streams()[0], 0)
	n := 0
	for {
		_, ok := rd.Next()
		if !ok {
			break
		}
		n++
	}
	if n != 2 {
		t.Fatalf("drained %d records, want 2", n)
	}
	if rcv.Err() != nil {
		t.Fatalf("unexpected pump error: %v", rcv.Err())
	}
}

// TestTCPReconnectResumes kills the shipping connections mid-stream and
// checks the receiver redials and resumes at the mirrored frontier: every
// record arrives exactly once, and the reconnect counter records the drops.
func TestTCPReconnectResumes(t *testing.T) {
	s1 := mkStream(1, 10, 20, 30)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, s1)
	defer srv.Close()

	rcv, err := Connect(srv.Addr(), []uint16{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	if got := drain(t, rcv.Streams()[0], 3, 5*time.Second); len(got) != 3 {
		t.Fatalf("mirrored %d records before the drop, want 3", len(got))
	}

	// Sever every shipping connection, then keep generating redo. The receiver
	// must redial and resume at LastSCN()+1 — no record lost, none duplicated.
	srv.DropConnections()
	for _, v := range []scn.SCN{40, 50, 60} {
		s1.Append(&redo.Record{SCN: v, Thread: 1, CVs: []redo.CV{{
			Kind: redo.CVInsert, Txn: 1, DBA: rowstore.MakeDBA(1, 0),
			Row: rowstore.Pack(rowstore.Row{Nums: []int64{int64(v)}}),
		}}})
	}
	got := drain(t, rcv.Streams()[0], 6, 10*time.Second)
	if len(got) != 6 {
		t.Fatalf("mirrored %d records after reconnect, want 6", len(got))
	}
	for i, want := range []scn.SCN{10, 20, 30, 40, 50, 60} {
		if got[i].SCN != want {
			t.Fatalf("record %d has SCN %d, want %d (duplicate or gap after reconnect)", i, got[i].SCN, want)
		}
	}
	if rcv.Reconnects() == 0 {
		t.Fatal("reconnect counter did not record the drop")
	}

	// A second round proves the backoff reset: the link is healthy again, so
	// another drop-and-resume cycle completes promptly.
	srv.DropConnections()
	s1.Append(&redo.Record{SCN: 70, Thread: 1})
	if got := drain(t, rcv.Streams()[0], 7, 10*time.Second); len(got) != 7 || got[6].SCN != 70 {
		t.Fatalf("second reconnect cycle failed: %d records", len(got))
	}
}

func TestTCPUnknownThread(t *testing.T) {
	s1 := mkStream(1, 1)
	ln, _ := net.Listen("tcp", "127.0.0.1:0")
	srv := NewServer(ln, s1)
	defer srv.Close()
	rcv, err := Connect(srv.Addr(), []uint16{9}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	// Server closes immediately; mirror drains empty.
	rd := redo.NewReader(rcv.Streams()[0], 0)
	if _, ok := rd.Next(); ok {
		t.Fatal("record shipped for unknown thread")
	}
}
