package rowstore

import "sync"

// indexShards is the number of lock shards in an Index. Power of two.
const indexShards = 16

// Index is a sharded hash index from an int64 key (the identity column in the
// paper's workload) to a row address. It is a physical structure: entries are
// inserted when the row is physically written (on the primary by DML, on the
// standby by redo apply), and lookups re-validate visibility with a CR read of
// the target block. Identity keys are unique and immutable, so a reader at an
// older snapshot simply fails the CR re-check — and so does a reader of a
// deleted row: a delete leaves the entry where it is (the delete may be rolled
// back; an insert that reuses the key overwrites it).
type Index struct {
	shards [indexShards]indexShard
}

type indexShard struct {
	mu sync.RWMutex
	m  map[int64]RowID
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	idx := &Index{}
	for i := range idx.shards {
		idx.shards[i].m = make(map[int64]RowID)
	}
	return idx
}

func (idx *Index) shard(key int64) *indexShard {
	// splitmix-style mix so sequential identities spread across shards.
	x := uint64(key)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	return &idx.shards[x&(indexShards-1)]
}

// Put inserts or replaces the entry for key.
func (idx *Index) Put(key int64, rid RowID) {
	s := idx.shard(key)
	s.mu.Lock()
	s.m[key] = rid
	s.mu.Unlock()
}

// Get returns the row address for key.
func (idx *Index) Get(key int64) (RowID, bool) {
	s := idx.shard(key)
	s.mu.RLock()
	rid, ok := s.m[key]
	s.mu.RUnlock()
	return rid, ok
}

// Len returns the number of entries.
func (idx *Index) Len() int {
	n := 0
	for i := range idx.shards {
		idx.shards[i].mu.RLock()
		n += len(idx.shards[i].m)
		idx.shards[i].mu.RUnlock()
	}
	return n
}

// Clear removes all entries (used by TRUNCATE replay).
func (idx *Index) Clear() {
	for i := range idx.shards {
		idx.shards[i].mu.Lock()
		idx.shards[i].m = make(map[int64]RowID)
		idx.shards[i].mu.Unlock()
	}
}
