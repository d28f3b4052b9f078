package fleet

import (
	"time"

	"dbimadg/internal/scn"
)

// FeedBound is the depth past which a reader's feed folds.
const FeedBound = feedBound

// Stall holds r's local recovery coordinator before its next advancement, as
// a reader that cannot keep up is held; resume lets it go on.
func Stall(r *Reader) (resume func()) {
	r.quiesce.RLock()
	return r.quiesce.RUnlock
}

// FeedBacklog returns the messages r's feed holds.
func FeedBacklog(r *Reader) int {
	r.q.mu.Lock()
	defer r.q.mu.Unlock()
	return len(r.q.items)
}

// FoldHoldingPublications waits for r's feed to end in a publication at or
// past at, then folds it as a push past its bound would, with the publications
// behind its last invalidation taken out first, so the fold's trailing stretch
// is of commits no publication left in the feed covers. It returns how many it
// took out and publish, which pushes them back.
func FoldHoldingPublications(r *Reader, at scn.SCN) (held int, publish func()) {
	r.q.mu.Lock()
	defer r.q.mu.Unlock()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		if n := len(r.q.items); n > 0 && r.q.items[n-1].publish != nil && r.q.items[n-1].publish.q >= at {
			break
		}
		r.q.mu.Unlock()
		time.Sleep(time.Millisecond)
		r.q.mu.Lock()
	}
	i := len(r.q.items)
	for i > 0 && r.q.items[i-1].publish != nil {
		i--
	}
	pubs := append([]msg(nil), r.q.items[i:]...)
	r.q.items, r.q.pushed = r.q.items[:i], r.q.pushed-int64(len(pubs))
	r.q.fold()
	return len(pubs), func() {
		for _, m := range pubs {
			r.q.push(m)
		}
	}
}

// Drained reports whether r has applied everything its feed accepted.
func Drained(r *Reader) bool { return r.drained() }

// FeedShed returns the messages m's readers' feeds folded away.
func FeedShed(m *Manager) int64 { return m.folded.Load() }
