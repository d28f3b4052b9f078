package imcs

import (
	"slices"
	"sync"

	"dbimadg/internal/rowstore"
	"dbimadg/internal/scn"
)

// SMU is the Snapshot Metadata Unit accompanying an IMCU (paper §II.B): it
// tracks the validity of the IMCU's data at block and row granularity,
// provides the unit's concurrency control (its latch synchronizes scans,
// invalidation flush, repopulation and drop), and accumulates the statistics
// that drive repopulation heuristics.
//
// The SMU is installed *before* the population snapshot is captured, so
// invalidation flushes during a long build land here rather than being lost
// (see DESIGN.md, "Population vs flush race").
type SMU struct {
	mu sync.Mutex

	imcu *IMCU // nil while populating

	invalid      []uint64 // row-level validity bitmap (1 = invalid)
	invalidRows  int
	allInvalid   bool // block/unit-level coarse invalidation
	dropped      bool
	repopulating bool
	// claimed marks a placeholder a population task holds (see claim).
	claimed bool

	// delta says what changed at invalid positions of imcu: a position with
	// entries is explained (see View), one without is opaque. It holds nothing of
	// a commit at or below imcu.SnapSCN — the image has those, and an entry of
	// one could override a newer value the image holds.
	delta delta

	// pending buffers, as colOpaque markers by row address, the invalidations
	// the replacement IMCU must show and the delta will not carry over to it:
	// all of them while imcu == nil, the opaque ones while a repopulation is in
	// flight.
	pending delta
	// pendingAllInvalid records a coarse invalidation that arrived while a
	// build was in flight: the build's snapshot may predate the invalidated
	// commit, so Attach must install the IMCU as coarse-invalid rather than
	// resetting the flag (the repopulation heuristics then rebuild it at a
	// covering snapshot).
	pendingAllInvalid bool

	// totalInvalidations counts rows invalidated since the last (re)populate,
	// feeding the repopulation heuristics.
	totalInvalidations int64
}

// Unit pairs an IMCU slot with its SMU and a fixed block range. The unit
// exists from the moment population is scheduled (placeholder) through
// repopulation cycles until the object is dropped.
type Unit struct {
	Obj      rowstore.ObjID
	Tenant   rowstore.TenantID
	StartBlk rowstore.BlockNo
	EndBlk   rowstore.BlockNo
	smu      SMU
}

// contains reports whether blk falls in the unit's range.
func (u *Unit) contains(blk rowstore.BlockNo) bool {
	return blk >= u.StartBlk && blk < u.EndBlk
}

// index maps a delta address to imcu's row position.
func (u *Unit) index(imcu *IMCU, addr uint64) (int, bool) {
	return imcu.RowIndexOf(u.StartBlk+rowstore.BlockNo(addr>>32), uint16(addr>>16))
}

// Attach installs a freshly built IMCU. It completes both initial population
// and repopulation: the invalidations buffered during the build land on the new
// image, and so does what the delta holds of commits after its snapshot — the
// entries of earlier commits are dropped with the bits they explained, for the
// image has them.
func (u *Unit) Attach(imcu *IMCU) {
	s := &u.smu
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropped {
		return // dropped while building; discard
	}
	old, was := s.imcu, s.delta
	s.imcu = imcu
	s.invalid = make([]uint64, (imcu.Rows()+63)/64)
	s.invalidRows = 0
	s.allInvalid = s.pendingAllInvalid
	s.pendingAllInvalid = false
	s.repopulating = false
	s.totalInvalidations = 0
	s.delta = delta{}
	// Entries patch the image they were made against or a later one of the same
	// shape; a VARCHAR's code is looked up again in the new dictionary.
	carry := old != nil && old.schema == imcu.schema && old.SnapSCN <= imcu.SnapSCN
	for _, e := range was.e {
		switch c := e.Col(); {
		case e.SCN <= imcu.SnapSCN:
		case !carry:
			s.pending.mark(e.Key)
		case c&strCol != 0 && c != ColDeleted:
			slot := c &^ strCol
			s.delta.putStr(len(s.delta.e), e.Key, e.SCN, imcu.strCols[slot], deltaStr(was.extra, old.strCols[slot], e.Val))
		default:
			s.delta.e = append(s.delta.e, e)
		}
	}
	for i := 0; i < len(s.delta.e); {
		addr := s.delta.e[i].Key &^ 0xFFFF
		_, hi := s.delta.row(addr)
		idx, held := u.index(imcu, addr)
		if held {
			s.setInvalidLocked(idx)
		}
		if held && imcu.Present(idx) {
			i = hi
		} else {
			s.delta.e = slices.Delete(s.delta.e, i, hi)
		}
	}
	for _, m := range s.pending.e {
		s.opaqueLocked(m.Key &^ 0xFFFF)
		if idx, held := u.index(imcu, m.Key); held {
			s.setInvalidLocked(idx)
		}
	}
	s.pending = delta{}
}

// BeginRepopulate marks the unit as rebuilding: subsequent invalidations are
// applied to the current bitmap and delta AND, those the delta does not
// explain, buffered for the replacement IMCU.
// It returns false when the unit is dropped or already repopulating.
func (u *Unit) BeginRepopulate() bool {
	s := &u.smu
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropped || s.repopulating || s.imcu == nil {
		return false
	}
	s.repopulating = true
	s.pending = delta{}
	return true
}

// claim marks a placeholder as held by the population task about to be
// queued for it. It returns false when the unit is dropped, holds an image or
// is held already.
func (u *Unit) claim() bool {
	s := &u.smu
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropped || s.imcu != nil || s.claimed {
		return false
	}
	s.claimed = true
	return true
}

// unclaim gives back the claim of a task that was not queued. What the
// placeholder buffered stays: the task a later pass queues needs it.
func (u *Unit) unclaim() {
	u.smu.mu.Lock()
	u.smu.claimed = false
	u.smu.mu.Unlock()
}

// unqueued reports a placeholder no population task holds.
func (u *Unit) unqueued() bool {
	s := &u.smu
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.dropped && s.imcu == nil && !s.claimed
}

// AbortRepopulate cancels an in-flight repopulation (e.g. the builder failed).
// Buffered invalidations are dropped: they were also applied to the current
// bitmap (and allInvalid stays set for a coarse one), so the surviving IMCU's
// validity state is intact and the next rebuild captures a covering snapshot.
func (u *Unit) AbortRepopulate() {
	s := &u.smu
	s.mu.Lock()
	s.repopulating = false
	s.pending = delta{}
	s.pendingAllInvalid = false
	s.mu.Unlock()
}

func (s *SMU) setInvalidLocked(idx int) {
	w, b := idx/64, uint(idx%64)
	if s.invalid[w]&(1<<b) == 0 {
		s.invalid[w] |= 1 << b
		s.invalidRows++
	}
}

// opaqueLocked drops what the delta holds of the row at addr.
func (s *SMU) opaqueLocked(addr uint64) {
	if lo, hi := s.delta.row(addr); hi > lo {
		s.delta.e = slices.Delete(s.delta.e, lo, hi)
	}
}

// deltaBound is how many entries a unit's delta may hold before a row it does
// not know yet goes opaque instead: twice what the default repopulation
// threshold lets single-column updates pile up before the unit is rebuilt.
func deltaBound(rows int) int { return rows/4 + 64 }

// explainLocked records in the delta what a commit at SCN at did to the valid
// or explained row at position idx, and marks it invalid. It reports false,
// whatever it recorded to be dropped, when the row must go opaque: the patch
// does not say what changed, the image has no row there to patch or is not
// older than the commit (a restart replays redo under an image that has it;
// the bit is set as it always was), the row is opaque already, or the delta is
// full.
func (s *SMU) explainLocked(addr uint64, idx int, at scn.SCN, p *Patch) bool {
	imcu := s.imcu
	lo, hi := s.delta.row(addr)
	switch set := s.invalid[idx/64]&(1<<uint(idx%64)) != 0; {
	case at <= imcu.SnapSCN, !imcu.Present(idx):
		return false
	case lo == hi && (set || len(s.delta.e) >= deltaBound(imcu.nRows)):
		return false
	}
	if !s.delta.apply(lo, addr, at, p, imcu) {
		return false
	}
	s.setInvalidLocked(idx)
	return true
}

// InvalidateRows marks the given slots of a block invalid without saying what
// changed: the positions are opaque, served from the row store.
func (u *Unit) InvalidateRows(blk rowstore.BlockNo, slots []uint16) {
	u.Invalidate(blk, slots, scn.Invalid, nil)
}

// Invalidate marks the given slots of a block invalid for a transaction
// committed at SCN at; patches, when not nil, says slot by slot what it changed,
// and a row so explained is served from the IMCU and the delta (see View).
// Slots outside the captured data (tail inserts) are ignored — they are served
// from the row store anyway. While a build is in flight what the new image
// must show is buffered for it.
func (u *Unit) Invalidate(blk rowstore.BlockNo, slots []uint16, at scn.SCN, patches []Patch) {
	s := &u.smu
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dropped {
		return
	}
	for i, slot := range slots {
		addr := DeltaAddr(blk-u.StartBlk, slot)
		if s.imcu != nil {
			if idx, held := s.imcu.RowIndexOf(blk, slot); held {
				s.totalInvalidations++
				if patches != nil && s.explainLocked(addr, idx, at, &patches[i]) {
					continue // the delta carries it to a replacement IMCU
				}
				s.setInvalidLocked(idx)
				s.opaqueLocked(addr)
			}
		}
		if s.imcu == nil || s.repopulating {
			s.pending.mark(addr)
		}
	}
}

// ForgetDelta drops the unit's column delta, to shed memory: the rows it
// explained are opaque from here on, and served from the row store.
func (u *Unit) ForgetDelta() {
	s := &u.smu
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.repopulating {
		for _, e := range s.delta.e {
			s.pending.mark(e.Key)
		}
	}
	s.delta = delta{}
}

// InvalidateAll coarse-invalidates the unit (paper §III.E): every row is
// treated as invalid and scans bypass the IMCU until repopulation. While a
// build is in flight the flag is additionally latched so Attach cannot wipe
// it — the in-flight snapshot may predate the invalidated commit.
func (u *Unit) InvalidateAll() {
	s := &u.smu
	s.mu.Lock()
	s.allInvalid = true
	if s.imcu == nil || s.repopulating {
		s.pendingAllInvalid = true
	}
	s.totalInvalidations += int64(u.rowsLocked())
	s.mu.Unlock()
}

func (u *Unit) rowsLocked() int {
	if u.smu.imcu == nil {
		return 0
	}
	return u.smu.imcu.Rows()
}

// Drop permanently disables the unit (object dropped or DDL'd, §III.G).
func (u *Unit) Drop() {
	s := &u.smu
	s.mu.Lock()
	s.dropped = true
	s.imcu = nil
	s.invalid = nil
	s.delta, s.pending = delta{}, delta{}
	s.pendingAllInvalid = false
	s.mu.Unlock()
}

// image returns the unit's current IMCU, nil for none.
func (u *Unit) image() *IMCU {
	u.smu.mu.Lock()
	defer u.smu.mu.Unlock()
	return u.smu.imcu
}

// Dropped reports whether the unit is dropped.
func (u *Unit) Dropped() bool {
	u.smu.mu.Lock()
	defer u.smu.mu.Unlock()
	return u.smu.dropped
}

// View atomically captures into v, reusing its buffers, what a scan needs: the
// current IMCU, a copy of the row-validity bitmap and a copy of the column
// delta. It reports false when the unit cannot serve scans (populating,
// coarse-invalidated or dropped) — the caller then reads the unit's block range
// from the row store.
//
// The bitmap additionally marks every captured slot with no visible row at the
// population snapshot (presence gap: an insert whose transaction was still in
// flight at capture time, or a deleted row). Such slots carry no column data
// and a commit that later fills one is not guaranteed to flush an invalidation
// here, so scans must resolve them through the row-store re-read path like
// opaque rows (the delta never explains one). Gaps are a view-level overlay
// only — the stored bitmap and InvalidRows keep counting explicit
// invalidations (including ones landing on gap slots), so the repopulation
// pressure that heals a stale or gap-ridden IMCU is unchanged.
func (u *Unit) View(v *View) bool {
	s := &u.smu
	s.mu.Lock()
	defer s.mu.Unlock()
	v.Invalid, v.Delta = slices.Grow(v.Invalid[:0], len(s.invalid)), v.Delta[:0]
	if s.dropped || s.imcu == nil || s.allInvalid {
		v.Release()
		return false
	}
	v.IMCU, v.extra = s.imcu, s.delta.extra
	v.Delta = append(v.Delta, s.delta.e...)
	present := s.imcu.PresentWords()
	rows := s.imcu.Rows()
	for w, word := range s.invalid {
		gap := ^present[w]
		if rem := rows - w*64; rem < 64 {
			gap &= (1 << uint(rem)) - 1
		}
		v.Invalid = append(v.Invalid, word|gap)
	}
	return true
}

// ScanView is View without the delta, into a bitmap of its own: every invalid
// position is then to be read from the row store.
func (u *Unit) ScanView() (imcu *IMCU, invalid []uint64, usable bool) {
	var v View
	usable = u.View(&v)
	return v.IMCU, v.Invalid, usable
}

// Stats is a snapshot of the SMU's health, feeding repopulation heuristics
// and observability.
type Stats struct {
	Populated    bool
	Repopulating bool
	AllInvalid   bool
	Dropped      bool
	Rows         int
	InvalidRows  int
	SnapSCN      scn.SCN
	MemBytes     int // the IMCU and the delta
	// DeltaEntries and DeltaBytes size the column delta; OpaqueRows counts the
	// invalid rows it does not explain, which scans read from the row store.
	DeltaEntries int
	DeltaBytes   int
	OpaqueRows   int
}

// Stats returns the unit's current statistics.
func (u *Unit) Stats() Stats {
	s := &u.smu
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Populated:    s.imcu != nil,
		Repopulating: s.repopulating,
		AllInvalid:   s.allInvalid,
		Dropped:      s.dropped,
		InvalidRows:  s.invalidRows,
		DeltaEntries: len(s.delta.e),
		DeltaBytes:   s.delta.memSize(),
		OpaqueRows:   s.invalidRows,
	}
	for i, e := range s.delta.e {
		if i == 0 || e.Key>>16 != s.delta.e[i-1].Key>>16 {
			st.OpaqueRows--
		}
	}
	if s.imcu != nil {
		st.Rows = s.imcu.Rows()
		st.SnapSCN = s.imcu.SnapSCN
		st.MemBytes = s.imcu.MemSize() + st.DeltaBytes
	}
	return st
}
