// Package transport ships redo from the primary to the standby. Two
// transports are provided:
//
//   - the in-process transport hands the standby the primary's redo streams
//     directly (zero copy), for single-process deployments and tests;
//   - the TCP transport serves each redo thread over a network connection
//     using the length-framed binary record encoding, mirroring the paper's
//     "Primary communicates with the Standby database over a network protocol
//     like TCP/IP" (§I). The receiver reconstructs local mirror streams that
//     the standby's apply pipeline consumes exactly as it would local logs.
//
// Both transports support re-attachment at an SCN, which is how a restarted
// standby resumes recovery from its last applied checkpoint (§III.E).
package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dbimadg/internal/obs"
	"dbimadg/internal/redo"
	"dbimadg/internal/scn"
)

// Source provides redo streams to a standby, regardless of transport.
type Source interface {
	// Streams returns one stream per primary redo thread. For the in-process
	// transport these are the primary's own streams; for TCP they are local
	// mirrors fed by the network.
	Streams() []*redo.Stream
	// Close stops the transport (mirror pumps for TCP; no-op in-process).
	Close() error
}

// InProc is the in-process transport.
type InProc struct {
	streams []*redo.Stream
}

// NewInProc wraps the primary's streams as a Source.
func NewInProc(streams ...*redo.Stream) *InProc {
	return &InProc{streams: streams}
}

// Streams implements Source.
func (p *InProc) Streams() []*redo.Stream { return p.streams }

// Close implements Source.
func (p *InProc) Close() error { return nil }

// --- TCP transport ----------------------------------------------------------

// Server ships a primary's redo threads to standby receivers over TCP. The
// wire protocol is: the client sends a 12-byte request (thread uint32 BE,
// fromSCN uint64 BE); the server replies with length-framed redo records for
// that thread starting at the first record with SCN >= fromSCN, writes an
// explicit end-of-log sentinel frame when the stream ends, then closes. The
// sentinel lets receivers tell a clean log end from a dropped connection.
type Server struct {
	ln      net.Listener
	streams map[uint16]*redo.Stream

	injector atomic.Pointer[FaultInjector]

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	done   chan struct{} // closed by Close: releases handlers waiting for redo
}

// NewServer starts serving the given streams on l.
func NewServer(l net.Listener, streams ...*redo.Stream) *Server {
	s := &Server{
		ln:      l,
		streams: make(map[uint16]*redo.Stream, len(streams)),
		conns:   make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	for _, st := range streams {
		s.streams[st.Thread()] = st
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and waits for connection handlers.
func (s *Server) Close() error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// SetFaultInjector installs (or, with nil, removes) a per-frame fault
// injector on every shipping connection. It generalizes DropConnections: the
// injector can drop, truncate, delay, duplicate, reorder, or corrupt
// individual frames according to its seeded plan. Safe to call while serving.
func (s *Server) SetFaultInjector(fi *FaultInjector) { s.injector.Store(fi) }

// DropConnections severs every live shipping connection without stopping the
// listener — a fault injection hook simulating a network partition. Attached
// receivers see a mid-stream error (not end-of-log) and reconnect.
func (s *Server) DropConnections() {
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
}

func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !s.track(conn) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.untrack(conn)
			defer conn.Close()
			s.serve(conn)
		}()
	}
}

func (s *Server) serve(conn net.Conn) {
	var req [12]byte
	if _, err := io.ReadFull(conn, req[:]); err != nil {
		return
	}
	thread := uint16(binary.BigEndian.Uint32(req[0:4]))
	from := scn.SCN(binary.BigEndian.Uint64(req[4:12]))
	stream, ok := s.streams[thread]
	if !ok {
		_ = redo.WriteEOL(conn) // no such log: an empty, already-ended thread
		return
	}
	rd := redo.NewReaderAtSCN(stream, from)
	// The handler waits for redo on the stream's wake-up, registered before the
	// first read so no append is missed, and on the server's done channel: a
	// blocking stream read could pin it past Close when the primary never
	// closes its stream. While there is redo to ship, Close ends the handler
	// through the write error on its closed connection.
	wake := make(chan struct{}, 1)
	stream.Watch(wake)
	defer stream.Unwatch(wake)
	// Group shipping: every record readable at a wake-up is framed into buf,
	// this connection's and reused, and leaves in one write — a backlog costs a
	// write per shipBatchBytes, an idle-time commit still goes at once (never
	// wait to fill a batch). A fault is drawn per frame and applied to that
	// frame's bytes inside the batch.
	var buf []byte
	var held []byte // frame parked by FaultReorder, shipped after its successor
	// flush writes b, the batch or a prefix of it, and empties the batch.
	flush := func(b []byte) bool {
		if len(b) > 0 {
			if _, err := conn.Write(b); err != nil {
				return false
			}
		}
		buf = buf[:0]
		return true
	}
	for {
		rec, ok, eol := rd.TryNext()
		if !ok {
			if eol {
				buf = append(buf, held...) // no successor left to follow
			}
			if !flush(buf) {
				return
			}
			if eol {
				_ = redo.WriteEOL(conn) // clean end of log, not a drop
				return
			}
			select {
			case <-wake:
			case <-s.done:
				return
			}
			continue
		}
		start := len(buf)
		buf = redo.AppendFrame(buf, rec)
		if fi := s.injector.Load(); fi != nil {
			frame := buf[start:]
			switch d := fi.nextDecision(); d.kind {
			case FaultDrop:
				// Severing here loses nothing: the frames before this one are
				// delivered, the receiver redials at LastSCN+1 and this record
				// is re-read from the stream. A held reordered frame is
				// likewise re-served after reconnect.
				flush(buf[:start])
				return
			case FaultPartial:
				cut := int(d.cut * float64(len(frame)))
				if cut < 1 {
					cut = 1
				}
				if cut >= len(frame) {
					cut = len(frame) - 1
				}
				flush(buf[:start+cut])
				return
			case FaultDelay:
				// What precedes goes now; the delayed frame leads the next batch.
				if !flush(buf[:start]) {
					return
				}
				buf = append(buf, frame...)
				time.Sleep(d.delay)
			case FaultDup:
				buf = append(buf, frame...)
			case FaultReorder:
				if len(held) == 0 {
					held = append(held, frame...)
					buf = buf[:start]
					continue // ship it after the next frame
				}
				// Already holding one; don't stack swaps.
			case FaultCorrupt:
				// Flip one bit in the body (past the 8-byte header) so the
				// length prefix stays intact and the CRC catches it.
				if body := len(frame) - 8; body > 0 {
					off := 8 + int(d.bit%uint64(body))
					frame[off] ^= 1 << (d.bit % 8)
				}
			}
		}
		buf = append(buf, held...)
		held = held[:0]
		if len(buf) >= shipBatchBytes && !flush(buf) {
			return
		}
	}
}

// shipBatchBytes is where a handler writes its batch out though more redo is
// readable: hundreds of frames per write call, yet the receiver starts on a
// backlog while the rest is still being framed.
const shipBatchBytes = 256 << 10

// Reconnect backoff bounds: the pump redials after a dropped connection with
// exponential backoff plus jitter, capped so a long partition never pushes
// the retry period beyond a second.
const (
	reconnectBase = 2 * time.Millisecond
	reconnectCap  = time.Second
)

// Receiver is the standby-side TCP transport: it connects to a Server, pulls
// each redo thread, and feeds local mirror streams. A dropped connection is
// not fatal: the pump redials with capped exponential backoff + jitter and
// resumes at the mirror's last received SCN + 1 (per-thread SCNs strictly
// increase, so resumption can neither duplicate nor skip records). Only an
// explicit end-of-log sentinel from the server ends a pump cleanly.
type Receiver struct {
	addr    string
	opts    Options
	from    scn.SCN
	mirrors []*redo.Stream
	wg      sync.WaitGroup
	stop    chan struct{}
	once    sync.Once

	mu      sync.Mutex
	conns   map[uint16]net.Conn // live connection per thread
	lastErr error

	trace      atomic.Pointer[obs.PipelineTrace]
	records    atomic.Int64 // redo records mirrored across all threads
	bytes      atomic.Int64 // encoded redo bytes mirrored
	reconnects atomic.Int64 // successful redials after a dropped connection
	corrupt    atomic.Int64 // frames rejected by CRC verification
	dups       atomic.Int64 // duplicate records dropped by SCN dedup
	windowed   atomic.Int64 // records accepted into a reorder window (cumulative)
	frames     atomic.Int64 // frames read off the wire, including duplicates
	rngState   atomic.Uint64
}

// Options tunes receiver-side resilience.
type Options struct {
	// ReorderWindow, when >= 2, buffers up to that many records per thread
	// and releases them to the mirror in SCN order, healing bounded
	// out-of-order delivery (e.g. FaultReorder's adjacent swaps). The buffer
	// is flushed on a clean end of log and SURVIVES connection errors: the
	// redial refetches from the archived log at LastSCN+1 and duplicates are
	// dropped against the window, so records delivered on a short-lived
	// connection accumulate instead of being re-fetched forever. (Discarding
	// the window on error looked equivalent — "nothing is lost, just refetch"
	// — but under sustained fault churn each connection dies before the
	// window overflows into a release, so the receiver livelocks refetching
	// the same records: the seed-4000 chaos stall.) 0 (the default) appends
	// records as they arrive and treats out-of-order delivery as a protocol
	// violation.
	ReorderWindow int
}

// SetTrace attaches an optional pipeline trace; ship-stage latency (time to
// receive each frame, from the later of read start and the record's origin)
// is observed per record when set.
func (r *Receiver) SetTrace(t *obs.PipelineTrace) { r.trace.Store(t) }

// RecordsReceived returns the redo records pumped into mirror streams.
func (r *Receiver) RecordsReceived() int64 { return r.records.Load() }

// BytesReceived returns the encoded redo bytes pumped into mirror streams.
func (r *Receiver) BytesReceived() int64 { return r.bytes.Load() }

// Reconnects returns how many times a pump redialled after a dropped
// connection (exported as transport_reconnects_total).
func (r *Receiver) Reconnects() int64 { return r.reconnects.Load() }

// CorruptFrames returns how many frames failed CRC verification and were
// refetched from the archived log.
func (r *Receiver) CorruptFrames() int64 { return r.corrupt.Load() }

// DuplicatesDropped returns how many already-mirrored records were discarded
// by SCN deduplication.
func (r *Receiver) DuplicatesDropped() int64 { return r.dups.Load() }

// FramesRead returns how many frames were read off the wire, including
// duplicates and frames still buffered in a reorder window.
func (r *Receiver) FramesRead() int64 { return r.frames.Load() }

// Frontier returns the lowest per-thread delivery frontier: the smallest
// LastSCN across the mirror streams. The watchdog compares it against the
// primary's commit frontier — if any thread's mirror freezes while the
// primary advances, the ship-stage backlog grows.
func (r *Receiver) Frontier() scn.SCN {
	var min scn.SCN
	for i, m := range r.mirrors {
		last := m.LastSCN()
		if i == 0 || last < min {
			min = last
		}
	}
	return min
}

// DebugState reports the receiver's connection and refetch state for
// flight-recorder bundles: per-thread mirror frontiers plus the cumulative
// wire counters. It is safe to call from any goroutine.
func (r *Receiver) DebugState() any {
	threads := make(map[string]uint64, len(r.mirrors))
	for _, m := range r.mirrors {
		threads[fmt.Sprintf("thread_%d_last_scn", m.Thread())] = uint64(m.LastSCN())
	}
	r.mu.Lock()
	lastErr := ""
	if r.lastErr != nil {
		lastErr = r.lastErr.Error()
	}
	liveConns := len(r.conns)
	r.mu.Unlock()
	return map[string]any{
		"addr":            r.addr,
		"live_conns":      liveConns,
		"records":         r.records.Load(),
		"bytes":           r.bytes.Load(),
		"frames_read":     r.frames.Load(),
		"reconnects":      r.reconnects.Load(),
		"corrupt_frames":  r.corrupt.Load(),
		"dups_dropped":    r.dups.Load(),
		"windowed":        r.windowed.Load(),
		"reorder_window":  r.opts.ReorderWindow,
		"last_dial_error": lastErr,
		"threads":         threads,
	}
}

// dial opens and handshakes one shipping connection for thread th starting at
// from, registering it so Close can interrupt a blocked read.
func (r *Receiver) dial(th uint16, from scn.SCN) (net.Conn, error) {
	conn, err := net.Dial("tcp", r.addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", r.addr, err)
	}
	var req [12]byte
	binary.BigEndian.PutUint32(req[0:4], uint32(th))
	binary.BigEndian.PutUint64(req[4:12], uint64(from))
	if _, err := conn.Write(req[:]); err != nil {
		conn.Close()
		return nil, fmt.Errorf("transport: handshake: %w", err)
	}
	r.mu.Lock()
	select {
	case <-r.stop:
		// Close already swept the connection map; registering now would leak a
		// live connection past shutdown.
		r.mu.Unlock()
		conn.Close()
		return nil, fmt.Errorf("transport: receiver closed")
	default:
	}
	if old, ok := r.conns[th]; ok {
		old.Close()
	}
	r.conns[th] = conn
	r.mu.Unlock()
	return conn, nil
}

// Connect dials addr for each thread and begins pumping records with
// SCN >= from into fresh mirror streams.
func Connect(addr string, threads []uint16, from scn.SCN) (*Receiver, error) {
	return ConnectOpts(addr, threads, from, Options{})
}

// ConnectOpts is Connect with explicit receiver options.
func ConnectOpts(addr string, threads []uint16, from scn.SCN, opts Options) (*Receiver, error) {
	r := &Receiver{
		addr:  addr,
		opts:  opts,
		from:  from,
		stop:  make(chan struct{}),
		conns: make(map[uint16]net.Conn, len(threads)),
	}
	r.rngState.Store(uint64(time.Now().UnixNano()) | 1)
	for _, th := range threads {
		conn, err := r.dial(th, from)
		if err != nil {
			r.Close()
			return nil, err
		}
		mirror := redo.NewStream(th)
		r.mirrors = append(r.mirrors, mirror)
		r.wg.Add(1)
		go r.pump(th, conn, mirror, from)
	}
	return r, nil
}

// pump drains one thread's connection into its mirror, redialling on drops
// until end-of-log or Close.
func (r *Receiver) pump(th uint16, conn net.Conn, mirror *redo.Stream, from scn.SCN) {
	defer r.wg.Done()
	defer mirror.Close()
	backoff := reconnectBase
	// The reorder window outlives individual connections: records a dying
	// connection managed to deliver stay buffered, and the redial's refetch
	// fills the gaps below them. See Options.ReorderWindow.
	var window []*redo.Record
	for {
		before := r.frames.Load()
		err := r.drainConn(conn, mirror, &window)
		if err == redo.ErrEndOfLog {
			return // primary closed this redo thread cleanly
		}
		if r.frames.Load() > before {
			// The dropped connection shipped frames — even duplicates of
			// already-buffered records prove the link works — so treat the
			// next drop as a fresh fault rather than a continuation of the
			// previous backoff. Escalating backoff while every short-lived
			// connection delivers a few frames throttles recovery to the cap
			// and starves the refetch path (the seed-4000 stall's second
			// half); only connections that die without delivering anything
			// (a true partition) escalate.
			backoff = reconnectBase
		}
		// Dropped connection (io.EOF, reset, or a local Close). Redial unless
		// the receiver is shutting down, resuming after the last mirrored SCN.
		for {
			select {
			case <-r.stop:
				return
			case <-time.After(r.jitter(backoff)):
			}
			if backoff *= 2; backoff > reconnectCap {
				backoff = reconnectCap
			}
			resume := from
			if last := mirror.LastSCN(); last != scn.Invalid {
				resume = last + 1
			}
			next, dialErr := r.dial(th, resume)
			if dialErr == nil {
				conn = next
				r.reconnects.Add(1)
				break
			}
			r.mu.Lock()
			r.lastErr = dialErr
			r.mu.Unlock()
		}
	}
}

// drainConn reads frames until the connection errors or signals end-of-log.
// Records already in the mirror (duplicates after FaultDup) or already
// buffered are dropped; with a ReorderWindow, records are buffered in *wp and
// released in SCN order. The window is flushed on a clean end of log and kept
// across connection errors — the redial refetches at LastSCN+1 (which is also
// how a CRC-rejected frame gets its archived-log refetch) and re-served
// records dedupe against the window, so short-lived connections still make
// durable progress.
//
// Releasing window[0] at overflow can never skip a record: the server ships
// in ascending SCN order from the resume point and FaultReorder displaces a
// frame by at most one position, so any not-yet-delivered SCN is above all
// but the newest buffered record.
func (r *Receiver) drainConn(conn net.Conn, mirror *redo.Stream, wp *[]*redo.Record) error {
	release := func(rec *redo.Record) {
		mirror.Append(rec)
		r.records.Add(1)
		r.bytes.Add(int64(rec.WireSize()))
	}
	// One reader per connection: frames a dead connection delivered behind a
	// corrupt or cut one die with it and are refetched in order at LastSCN+1.
	fr := redo.NewFrameReader(conn)
	for {
		start := time.Now()
		rec, err := fr.Next()
		if err == nil {
			r.frames.Add(1)
		}
		if err != nil {
			var ce *redo.ChecksumError
			if errors.As(err, &ce) {
				r.corrupt.Add(1)
			}
			if err == redo.ErrEndOfLog {
				// Clean end of log: the server has shipped everything from the
				// resume point, so the window is gap-free and can drain.
				for _, w := range *wp {
					release(w)
				}
				*wp = nil
			}
			return err
		}
		if rec.SCN <= mirror.LastSCN() {
			r.dups.Add(1)
			continue
		}
		// Ship time is the record's: a read that began before the record
		// existed (shipwait covers that) counts from the record's origin.
		end := time.Now()
		ship := end.Sub(start)
		if rec.OriginNS > 0 {
			ship = min(ship, max(0, time.Duration(end.UnixNano()-rec.OriginNS)))
		}
		r.trace.Load().Observe(obs.StageShip, uint64(rec.SCN), ship)
		if r.opts.ReorderWindow < 2 {
			release(rec)
			continue
		}
		window := *wp
		i := sort.Search(len(window), func(i int) bool { return window[i].SCN >= rec.SCN })
		if i < len(window) && window[i].SCN == rec.SCN {
			r.dups.Add(1)
			continue
		}
		window = append(window, nil)
		copy(window[i+1:], window[i:])
		window[i] = rec
		r.windowed.Add(1)
		for len(window) > r.opts.ReorderWindow {
			release(window[0])
			window = window[1:]
		}
		*wp = window
	}
}

// jitter spreads d over [d/2, d): synchronized redials from many threads
// after one partition would otherwise stampede the server.
func (r *Receiver) jitter(d time.Duration) time.Duration {
	// xorshift64 on a shared state; statistical quality is irrelevant here.
	for {
		s := r.rngState.Load()
		x := s
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		if r.rngState.CompareAndSwap(s, x) {
			half := int64(d) / 2
			return time.Duration(half + int64(x%uint64(half+1)))
		}
	}
}

// ResumeSCN returns the first SCN this receiver can still serve: the SCN it
// was dialed at, or past the newest record its consumer released from a mirror
// (the standby's merger releases what it has dispatched). Redo below it is NOT
// available from this source. A restarting standby compares this against its
// resume point to decide whether the archived-log catch-up window is
// satisfiable (see standby.Instance.Restart); in-process sources expose the
// whole archived log and have no such limit.
func (r *Receiver) ResumeSCN() scn.SCN {
	from := r.from
	for _, m := range r.mirrors {
		if _, _, rel := m.Held(); rel != scn.Invalid {
			from = max(from, rel+1)
		}
	}
	return from
}

// Held returns the records the mirrors still hold and what they take besides
// their row images (see redo.Stream.Held).
func (r *Receiver) Held() (records int, bytes int64) {
	for _, m := range r.mirrors {
		n, b, _ := m.Held()
		records, bytes = records+n, bytes+b
	}
	return records, bytes
}

// Streams implements Source.
func (r *Receiver) Streams() []*redo.Stream { return r.mirrors }

// Close implements Source: it stops reconnection, tears down the connections
// and waits for the pumps (mirror streams are closed, so readers drain). It
// is idempotent — role transitions and Cluster.Close may both invoke it.
func (r *Receiver) Close() error {
	r.once.Do(func() {
		close(r.stop)
	})
	r.mu.Lock()
	for _, c := range r.conns {
		c.Close()
	}
	r.mu.Unlock()
	r.wg.Wait()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// Err returns the last pump error, if any.
func (r *Receiver) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}
