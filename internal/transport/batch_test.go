package transport

import (
	"encoding/binary"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"dbimadg/internal/redo"
	"dbimadg/internal/scn"
	"dbimadg/internal/testutil"
)

// countingListener hands the server connections that count its write calls and
// bytes and note the SCN each handshake asked for.
type countingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*countingConn
}

type countingConn struct {
	net.Conn
	mu    sync.Mutex
	req   []byte // the 12-byte handshake, as the server read it
	sizes []int  // bytes of each write call, in order
}

func listenCounting(t *testing.T) *countingListener {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return &countingListener{Listener: ln}
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	c := &countingConn{Conn: conn}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

func (l *countingListener) conn(i int) *countingConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	if i >= len(l.conns) {
		return nil
	}
	return l.conns[i]
}

// writes sums the write calls of every connection accepted so far.
func (l *countingListener) writes() (n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		n += len(c.writeSizes())
	}
	return n
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.sizes = append(c.sizes, len(p))
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.req = append(c.req, p[:min(n, 12-len(c.req))]...)
	c.mu.Unlock()
	return n, err
}

func (c *countingConn) writeSizes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.sizes...)
}

// fromSCN is the resume point the connection's handshake named; the handler
// reads the handshake before it writes a frame.
func (c *countingConn) fromSCN() scn.SCN {
	c.mu.Lock()
	defer c.mu.Unlock()
	return scn.SCN(binary.BigEndian.Uint64(c.req[4:12]))
}

func backlog(n int) *redo.Stream {
	scns := make([]scn.SCN, n)
	for i := range scns {
		scns[i] = scn.SCN(10 * (i + 1))
	}
	return mkStream(1, scns...)
}

// readAll drains a closed source or an EOL-ended mirror.
func readAll(s *redo.Stream) []*redo.Record {
	var out []*redo.Record
	rd := redo.NewReader(s, 0)
	for {
		rec, ok := rd.Next()
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

// TestBatchedFramesUnderFaults ships a backlog that is already in the stream
// when the receiver connects, so its frames travel together in one write, and
// applies each fault kind to one frame in the middle of that batch. The mirror
// must equal the source exactly once and in SCN order, with the counters a
// frame-at-a-time server would have produced.
func TestBatchedFramesUnderFaults(t *testing.T) {
	const n, at = 64, 20 // the fault hits the frame of SCN 210
	cases := []struct {
		kind                              FaultKind
		window                            int
		frames, dups, corrupt, reconnects int64
	}{
		{kind: FaultNone, frames: n},
		{kind: FaultDrop, frames: n, reconnects: 1},
		{kind: FaultPartial, frames: n, reconnects: 1},
		{kind: FaultDelay, frames: n},
		{kind: FaultDup, frames: n + 1, dups: 1},
		{kind: FaultReorder, window: 2, frames: n},
		{kind: FaultCorrupt, frames: n, corrupt: 1, reconnects: 1},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			src := backlog(n)
			src.Close() // EOL ends the pump, flushes the window and closes the mirror
			ln := listenCounting(t)
			srv := NewServer(ln, src)
			defer srv.Close()
			script := make([]FaultKind, at+1)
			script[at] = tc.kind
			srv.SetFaultInjector(NewScriptedInjector(script...))

			rcv, err := ConnectOpts(srv.Addr(), []uint16{1}, 0, Options{ReorderWindow: tc.window})
			if err != nil {
				t.Fatal(err)
			}
			defer rcv.Close()
			want, got := readAll(src), readAll(rcv.Streams()[0])
			if len(got) != n {
				t.Fatalf("mirrored %d records, want %d", len(got), n)
			}
			for i := range want {
				if got[i].SCN != want[i].SCN || !reflect.DeepEqual(got[i].CVs, want[i].CVs) {
					t.Fatalf("record %d is SCN %d %+v, want SCN %d %+v", i, got[i].SCN, got[i].CVs, want[i].SCN, want[i].CVs)
				}
			}
			if rcv.Err() != nil {
				t.Fatalf("pump error: %v", rcv.Err())
			}
			if f, d, c, r := rcv.FramesRead(), rcv.DuplicatesDropped(), rcv.CorruptFrames(), rcv.Reconnects(); f != tc.frames || d != tc.dups || c != tc.corrupt || r != tc.reconnects {
				t.Fatalf("frames=%d dups=%d corrupt=%d reconnects=%d, want %d %d %d %d", f, d, c, r, tc.frames, tc.dups, tc.corrupt, tc.reconnects)
			}
			if rcv.RecordsReceived() != n || rcv.BytesReceived() != src.Bytes() {
				t.Fatalf("received %d records, %d bytes; the source has %d, %d", rcv.RecordsReceived(), rcv.BytesReceived(), n, src.Bytes())
			}
			// Batched: the whole backlog left in a handful of writes (batch, a
			// delayed or parked remainder, EOL), not one per frame.
			sizes := ln.conn(0).writeSizes()
			if len(sizes) > 4 {
				t.Fatalf("first connection took %d writes for a %d-frame backlog", len(sizes), n)
			}
			if tc.reconnects == 0 {
				return
			}
			// The redial resumes right behind the last record the dead
			// connection delivered intact.
			if from := ln.conn(1).fromSCN(); from != want[at-1].SCN+1 {
				t.Fatalf("redial asked for SCN %d, want LastSCN+1 = %d", from, want[at-1].SCN+1)
			}
			if tc.kind != FaultCorrupt {
				return
			}
			// The corrupt frame travelled in the middle of one write that held
			// the whole backlog: the frames behind it were complete and unread
			// on the receiver when it gave the connection up. It must drop
			// them with the connection — parsing on would mirror SCN 220 right
			// after 200 — and FramesRead shows they were never parsed.
			if framed := int(src.Bytes()) + 8*n; sizes[0] != framed {
				t.Fatalf("first write carried %d bytes, want the whole framed backlog (%d)", sizes[0], framed)
			}
		})
	}
}

// TestGroupShipWritesPerWakeup pins the two halves of the batching rule: a
// backlog goes out in a write per shipBatchBytes, not per record, and a record
// appended while the receiver is caught up is written at once — the handler
// never holds a record back to fill a batch.
func TestGroupShipWritesPerWakeup(t *testing.T) {
	const n = 10000
	src := backlog(n)
	ln := listenCounting(t)
	srv := NewServer(ln, src)
	defer srv.Close()
	rcv, err := Connect(srv.Addr(), []uint16{1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer rcv.Close()
	mirror := rcv.Streams()[0]
	testutil.Eventually(t, 10*time.Second, func() bool { return mirror.Len() == n }, "backlog not mirrored")
	if w := ln.writes(); w > n/100 {
		t.Fatalf("%d records took %d writes, want <= %d", n, w, n/100)
	}
	if rcv.FramesRead() != n {
		t.Fatalf("FramesRead = %d, want one frame per record (%d)", rcv.FramesRead(), n)
	}

	for i := 1; i <= 5; i++ {
		time.Sleep(2 * time.Millisecond) // the handler goes back to sleep
		before := ln.writes()
		start := time.Now()
		src.Append(&redo.Record{SCN: scn.SCN(10 * (n + i)), Thread: 1})
		if !testutil.WaitFor(100*time.Millisecond, 20*time.Microsecond, func() bool { return mirror.Len() == n+i }) {
			t.Fatalf("idle-time record %d not mirrored 100ms after its append", i)
		}
		t.Logf("record %d mirrored after %v", i, time.Since(start))
		if w := ln.writes() - before; w != 1 {
			t.Fatalf("idle-time record %d took %d writes, want 1", i, w)
		}
	}
}

// TestAllocsPerRunShip guards both ends of the wire path: the serving side
// frames into its connection's buffer and allocates nothing per record, and
// the receiving side allocates what DecodeRecord does for the record it hands
// on — no frame body, no re-encoding to count bytes.
func TestAllocsPerRunShip(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const n = 2000
	src := backlog(n)
	src.Close()
	first, _ := src.At(0)
	body := redo.AppendRecord(nil, first)
	decode := testing.AllocsPerRun(100, func() {
		if _, err := redo.DecodeRecord(body); err != nil {
			t.Fatal(err)
		}
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ln, src)
	defer srv.Close()
	perRun := testing.AllocsPerRun(5, func() {
		rcv, err := Connect(srv.Addr(), []uint16{1}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(readAll(rcv.Streams()[0])); got != n {
			t.Fatalf("mirrored %d records, want %d", got, n)
		}
		rcv.Close()
	})
	// Per connection: dial, goroutines, the serve, read and body buffers and
	// the mirror's and readAll's slices growing — dozens, not thousands.
	perRec := perRun / n
	t.Logf("%.0f allocs per %d-record connection = %.2f per record; DecodeRecord alone %.0f", perRun, n, perRec, decode)
	if perRec > decode+0.25 {
		t.Fatalf("%.2f allocs per shipped record, want DecodeRecord's %.0f and a connection's fixed cost", perRec, decode)
	}
}
