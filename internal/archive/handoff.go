package archive

// History transfer: the one way a file's version history moves between
// stores. ExportDelta copies a history — whole, or its tail after a base
// version — as catalog.PutRec, the manifest record the store already
// persists, and ImportDelta replays those records into another store, moving
// chunk bytes by content hash. Replica catch-up, full resync and the handover
// of a live migration all run this pair. The destination deduplicates against
// everything it already holds — blobs it has (live, or dead-but-unswept on
// disk) never travel — so a transfer costs O(changed chunks), the same
// property PutSnapshot gives the commit path.

import (
	"errors"
	"fmt"

	"datalinks/internal/catalog"
	"datalinks/internal/extent"
)

// ErrChainGap reports a delta export or import whose base version does not
// line up with the history on this store — the history was truncated,
// restored, or never archived here. The caller resyncs from scratch: Drop,
// then ExportDelta/ImportDelta with base -1.
var ErrChainGap = errors.New("archive: history chain gap")

// ImportStats reports what one ImportDelta physically did.
type ImportStats struct {
	Versions      int
	MovedChunks   int   // blobs fetched from the source and stored
	MovedBytes    int64 // bytes that crossed between the stores
	DedupedChunks int   // blobs the destination already held (zero transfer)
	DedupedBytes  int64
}

// ExportDelta snapshots every version of a history strictly after base,
// ordered oldest-first, as the manifests the catalog persists. The first
// record chains off version base, so a store whose last version is base
// appends the result with ImportDelta. base -1 exports the whole history (a
// path with none exports nothing). An empty slice otherwise means the
// history ends at base. ErrChainGap reports a base >= 0 that is not in this
// history. The records share this store's frozen hash lists; nothing
// mutates them.
func (s *Store) ExportDelta(server, path string, base int64) ([]catalog.PutRec, error) {
	k := key(server, path)
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fv := sh.entries[k]
	if fv == nil || len(fv.entries) == 0 {
		if base < 0 {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: export of %s after version %d: no history", ErrChainGap, path, base)
	}
	idx := -1
	if base >= 0 {
		for i := range fv.entries {
			if int64(fv.entries[i].Version) == base {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil, fmt.Errorf("%w: export of %s: version %d not in history (have %d..%d)",
				ErrChainGap, path, base, fv.entries[0].Version, fv.entries[len(fv.entries)-1].Version)
		}
	}
	out := make([]catalog.PutRec, 0, len(fv.recs)-idx-1)
	for i := idx + 1; i < len(fv.recs); i++ {
		out = append(out, *catalogRec(k, &fv.entries[i], fv.recs[i]))
	}
	return out, nil
}

// FetchBlob returns the bytes of one content hash (paging in from the disk
// tier if cold). The caller owns the returned chunk and must ReleaseChunk it.
// This is the source side of a transfer: the destination's ImportDelta calls
// it for exactly the hashes it does not already hold.
func (s *Store) FetchBlob(h extent.Hash) (*extent.Chunk, error) {
	return s.disk.Get(h)
}

// ensureBlob pins one reference on h and, the first time h is fresh to the
// refcount table, makes sure its bytes are on this store's device — reviving
// a dead-but-unswept disk blob in place, or fetching from the source
// otherwise. logical is the slot's logical size, charged to the dedup
// counters when no transfer happens. Every pin is appended to *pinned so the
// caller can unwind symmetrically.
func (s *Store) ensureBlob(h extent.Hash, logical int64, path string, fetch func(extent.Hash) (*extent.Chunk, error), st *ImportStats, pinned *[]extent.Hash) error {
	fresh := s.addRef(h)
	*pinned = append(*pinned, h)
	if !fresh {
		st.DedupedChunks++
		st.DedupedBytes += logical
		return nil
	}
	if s.disk.Has(h) {
		// Dead-but-unswept (or adopted-orphan) blob: revive in place.
		s.disk.Claim(h)
		st.DedupedChunks++
		st.DedupedBytes += logical
		return nil
	}
	c, err := fetch(h)
	if err != nil {
		return fmt.Errorf("archive: import fetch %s: %w", path, err)
	}
	n := int64(len(c.Data()))
	_, err = s.disk.Put(h, c)
	c.ReleaseChunk()
	if err != nil {
		return fmt.Errorf("archive: import store %s: %w", path, err)
	}
	st.MovedChunks++
	st.MovedBytes += n
	return nil
}

// ImportDelta replays records exported after version base into this store's
// history of (server, path); the records' own keys are ignored. fetch runs
// once per blob hash this store does not already hold. Every version is
// logged to the durable catalog before it is served, with the same
// blobs-before-manifests durability barrier as PutSnapshot at the end.
//
// base -1 is a fresh import: this store must hold no history for the path
// (ErrStale otherwise), and the import is all-or-nothing — on any error no
// version becomes visible, every pinned reference is released, and records
// already logged are tombstoned so a restart cannot resurrect them.
//
// base >= 0 extends the history this store holds (ErrChainGap if it holds
// none, or if recs do not start at base+1 — they must be exactly what
// ExportDelta returned for base). Records at or below the local last version are skipped, so a
// re-shipped frame whose ack was lost lands as a no-op; the first genuinely
// new record must be the direct successor of the local last version and the
// rest must follow contiguously, anything else is ErrChainGap. Versions
// become visible one at a time: a catalog failure keeps the ones logged.
func (s *Store) ImportDelta(server, path string, base int64, recs []catalog.PutRec, fetch func(extent.Hash) (*extent.Chunk, error)) (ImportStats, error) {
	var st ImportStats
	fresh := base < 0
	k := key(server, path)
	sh := s.shardFor(k)

	sh.mu.Lock()
	fv := sh.entries[k]
	if fresh && fv != nil {
		sh.mu.Unlock()
		return st, fmt.Errorf("%w: import of %s: history already present", ErrStale, path)
	}
	if !fresh && (fv == nil || len(fv.entries) == 0) {
		sh.mu.Unlock()
		return st, fmt.Errorf("%w: delta into %s: no base history", ErrChainGap, path)
	}
	last := int64(-1)
	var gen uint64
	var full []extent.Hash
	if !fresh {
		last = int64(fv.entries[len(fv.entries)-1].Version)
		gen = fv.gen
		full = fv.last
	}
	sh.mu.Unlock()

	if !fresh && len(recs) > 0 && recs[0].Version != base+1 {
		return st, fmt.Errorf("%w: delta into %s: exported after version %d, first record is version %d",
			ErrChainGap, path, base, recs[0].Version)
	}
	for !fresh && len(recs) > 0 && recs[0].Version <= last {
		recs = recs[1:]
	}
	if len(recs) == 0 {
		return st, nil
	}

	// Build the versions aside, pinning blob references per record so a
	// failure can release exactly the pins of the records that did not land —
	// the same walk as a catalog replay, except a missing blob is fetched
	// from the source instead of ending the history.
	var pinned []extent.Hash
	fail := func(err error) (ImportStats, error) {
		for _, h := range pinned {
			s.releaseRef(h)
		}
		return ImportStats{}, err
	}
	newRecs := make([]*verRec, len(recs))
	fulls := make([][]extent.Hash, len(recs))
	pinStart := make([]int, len(recs))
	for i := range recs {
		if !fresh && recs[i].Version != last+1+int64(i) {
			return fail(fmt.Errorf("%w: delta into %s: have version %d, record %d is version %d",
				ErrChainGap, path, last, i, recs[i].Version))
		}
		pinStart[i] = len(pinned)
		rec := recFromCatalog(&recs[i])
		full = applyRec(full, rec)
		for _, h := range full {
			if err := s.ensureBlob(h, extent.ChunkSize, path, fetch, &st, &pinned); err != nil {
				return fail(err)
			}
		}
		if rec.tailLen > 0 {
			if err := s.ensureBlob(rec.tail, int64(rec.tailLen), path, fetch, &st, &pinned); err != nil {
				return fail(err)
			}
		}
		newRecs[i] = rec
		fulls[i] = full
	}

	sh.mu.Lock()
	cur := sh.entries[k]
	switch {
	case fresh && cur != nil:
		sh.mu.Unlock()
		return fail(fmt.Errorf("%w: import of %s: history already present", ErrStale, path))
	case fresh:
		fv = &fileVersions{gen: genCounter.Add(1)}
	case cur != fv || cur.gen != gen || int64(cur.entries[len(cur.entries)-1].Version) != last:
		sh.mu.Unlock()
		return fail(fmt.Errorf("%w: delta into %s: history changed during import", ErrStale, path))
	}
	for i := range recs {
		if s.cat != nil {
			pr := recs[i]
			pr.Key = k
			if err := s.logPut(&pr); err != nil {
				err = fmt.Errorf("archive: import catalog %s: %w", path, err)
				if fresh {
					// Nothing is visible yet; tombstone what was logged.
					if i > 0 {
						_ = s.cat.AppendDrop(k)
					}
					sh.mu.Unlock()
					return fail(err)
				}
				// Records [0,i) are logged and visible — keep them.
				sh.mu.Unlock()
				for _, h := range pinned[pinStart[i]:] {
					s.releaseRef(h)
				}
				return st, err
			}
		}
		fv.push(s, k, server, path, &recs[i], newRecs[i], fulls[i])
		st.Versions++
	}
	if fresh {
		sh.entries[k] = fv
	}
	sh.mu.Unlock()
	if s.cat != nil {
		_ = s.cat.CompactIfDue()
	}
	// Same commit durability barrier as PutSnapshot: blobs before manifests.
	if err := s.disk.Sync(); err != nil {
		return st, err
	}
	if s.cat != nil {
		if err := s.cat.Sync(); err != nil {
			return st, fmt.Errorf("archive: import catalog %s: %w", path, err)
		}
	}
	for i := range recs {
		s.logicalBytes.Add(recs[i].Size)
	}
	s.newBytes.Add(st.MovedBytes)
	s.dedupedBytes.Add(st.DedupedBytes)
	// Device transfer: only moved blobs travel.
	s.sleep(int64(st.MovedChunks))
	return st, nil
}
