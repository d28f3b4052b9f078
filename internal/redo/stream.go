package redo

import (
	"cmp"
	"slices"
	"sync"
	"unsafe"

	"dbimadg/internal/scn"
)

// Stream is one redo thread's log: an SCN-ordered, append-only sequence of
// records. It doubles as the archived log — readers can (re-)attach at any
// position, which is how the standby resumes recovery after a restart
// (§III.E). Appends wake blocked readers and poke registered watchers.
//
// A stream that is one consumer's private copy of the log (a TCP receiver's
// mirror) lets that consumer Release what it has passed. Positions stay
// absolute, Len, Bytes and LastSCN count every record ever appended, and a
// reader may attach by SCN only past the newest record released.
type Stream struct {
	thread uint16

	mu   sync.Mutex
	cond *sync.Cond
	// recs[i] is the record at position base+i, released (nil) for i < dead.
	recs      []*Record
	base      int
	dead      int
	released  scn.SCN // of the newest record released
	last      scn.SCN
	heldBytes int64 // memSize of the records held
	bytes     int64
	closed    bool
	watchers  []chan<- struct{}
}

// NewStream returns an empty stream for the given redo thread.
func NewStream(thread uint16) *Stream {
	s := &Stream{thread: thread}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Thread returns the generating instance (redo thread) id.
func (s *Stream) Thread() uint16 { return s.thread }

// Append adds a record to the log. Records must arrive in non-decreasing SCN
// order within a stream; Append panics otherwise, since out-of-order redo
// within a thread indicates a bug in redo generation.
func (s *Stream) Append(r *Record) {
	size := int64(r.WireSize())
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		panic("redo: append to closed stream")
	}
	if r.SCN < s.last {
		panic("redo: out-of-order append within a redo thread")
	}
	s.recs = append(s.recs, r)
	s.last = r.SCN
	s.heldBytes += r.memSize()
	s.bytes += size
	s.wake()
}

// memSize is what a decoded record holds besides its row images (row
// versions hold those too).
func (r *Record) memSize() int64 {
	n := int64(unsafe.Sizeof(*r)) + int64(cap(r.CVs))*int64(unsafe.Sizeof(CV{}))
	for i := range r.CVs {
		n += 2 * int64(cap(r.CVs[i].ChangedCols))
	}
	return n
}

// Release drops the records before position upTo, which the stream's one
// consumer has passed; reading one of them panics. The array is compacted
// once the released prefix is more than half of it.
func (s *Stream) Release(upTo int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for ; s.base+s.dead < upTo && s.dead < len(s.recs); s.dead++ {
		s.released = s.recs[s.dead].SCN
		s.heldBytes -= s.recs[s.dead].memSize()
		s.recs[s.dead] = nil
	}
	if s.dead > len(s.recs)/2 {
		s.recs, s.base, s.dead = slices.Clone(s.recs[s.dead:]), s.base+s.dead, 0
	}
}

// Held returns the records the stream holds and their memSize, and the SCN
// of the newest record released (scn.Invalid for none): redo at or below it
// is not readable here.
func (s *Stream) Held() (records int, bytes int64, released scn.SCN) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs) - s.dead, s.heldBytes, s.released
}

// wake releases blocked At callers and pokes every watcher. Caller holds s.mu.
func (s *Stream) wake() {
	s.cond.Broadcast()
	for _, ch := range s.watchers {
		select {
		case ch <- struct{}{}:
		default: // a poke is already pending: the watcher will look again
		}
	}
}

// Watch registers ch to be poked, with a send that never blocks, by every
// later Append and by Close. It is the select-able counterpart of At for
// consumers that poll with TryAt/TryNext and must also listen for a stop
// signal: register a 1-buffered channel, then sweep with TryNext and block on
// the channel only when a sweep that started after Watch found nothing, so no
// append is missed. One channel may watch several streams. Pokes coalesce and
// may be stale; the watcher re-reads the stream after each.
func (s *Stream) Watch(ch chan<- struct{}) {
	s.mu.Lock()
	s.watchers = append(s.watchers, ch)
	s.mu.Unlock()
}

// Unwatch removes a registration made by Watch.
func (s *Stream) Unwatch(ch chan<- struct{}) {
	s.mu.Lock()
	if i := slices.Index(s.watchers, ch); i >= 0 {
		s.watchers = slices.Delete(s.watchers, i, i+1)
	}
	s.mu.Unlock()
}

// Close marks the stream complete (primary shutdown); blocked readers drain
// and then see end-of-log.
func (s *Stream) Close() {
	s.mu.Lock()
	s.closed = true
	s.wake()
	s.mu.Unlock()
}

// Len returns the number of records ever appended, released ones included.
func (s *Stream) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.base + len(s.recs)
}

// Bytes returns the total encoded redo volume generated so far.
func (s *Stream) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

// LastSCN returns the SCN of the newest record, or scn.Invalid when empty.
func (s *Stream) LastSCN() scn.SCN {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// at returns the record at position idx, which exists; caller holds s.mu.
func (s *Stream) at(idx int) *Record {
	if idx < s.base+s.dead {
		panic("redo: read of a released record")
	}
	return s.recs[idx-s.base]
}

// At returns the record at position idx, blocking until it exists or the
// stream closes. ok is false at end-of-log.
func (s *Stream) At(idx int) (r *Record, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for idx >= s.base+len(s.recs) && !s.closed {
		s.cond.Wait()
	}
	if idx < s.base+len(s.recs) {
		return s.at(idx), true
	}
	return nil, false
}

// TryAt is the non-blocking variant of At: ok is false when the record does
// not exist yet; eol is true when the stream is closed and drained.
func (s *Stream) TryAt(idx int) (r *Record, ok, eol bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if idx < s.base+len(s.recs) {
		return s.at(idx), true, false
	}
	return nil, false, s.closed
}

// IndexAtOrAfter returns the position of the first record with SCN >= target,
// for re-attaching a reader after a standby restart. It panics when a record
// at or past target was released, like a read of a released position: the
// reader would skip redo.
func (s *Stream) IndexAtOrAfter(target scn.SCN) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.base+s.dead > 0 && target <= s.released {
		panic("redo: attach below the released redo")
	}
	held := s.recs[s.dead:]
	i, _ := slices.BinarySearchFunc(held, target, func(r *Record, t scn.SCN) int { return cmp.Compare(r.SCN, t) })
	return s.base + s.dead + i
}

// Reader is a cursor over a Stream.
type Reader struct {
	stream *Stream
	idx    int
}

// NewReader returns a reader positioned at record index idx.
func NewReader(s *Stream, idx int) *Reader {
	return &Reader{stream: s, idx: idx}
}

// NewReaderAtSCN returns a reader positioned at the first record with
// SCN >= target.
func NewReaderAtSCN(s *Stream, target scn.SCN) *Reader {
	return &Reader{stream: s, idx: s.IndexAtOrAfter(target)}
}

// Next returns the next record, blocking for more redo; ok is false at
// end-of-log (stream closed and drained).
func (r *Reader) Next() (*Record, bool) {
	rec, ok := r.stream.At(r.idx)
	if ok {
		r.idx++
	}
	return rec, ok
}

// TryNext is the non-blocking variant of Next.
func (r *Reader) TryNext() (rec *Record, ok, eol bool) {
	rec, ok, eol = r.stream.TryAt(r.idx)
	if ok {
		r.idx++
	}
	return rec, ok, eol
}

// Pos returns the reader's current record index.
func (r *Reader) Pos() int { return r.idx }
