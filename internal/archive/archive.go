// Package archive implements the archive server of §4.4: a versioned store
// of linked-file contents used for update atomicity (restore the last
// committed version after an abort or crash) and for coordinated
// point-in-time restore (each version carries the host database state
// identifier that was current when it committed).
//
// Storage is tiered and delta-based:
//
//   - Each version's metadata is a delta manifest against its predecessor —
//     the list of chunk slots whose content hash changed, plus the new tail.
//     A full manifest (checkpoint) is stored for version 0, whenever the
//     delta would exceed half the file, and at least every checkpointEvery
//     versions, so materializing any version walks a bounded chain.
//     Metadata cost per version is therefore O(changed chunks), not
//     O(file size / ChunkSize).
//   - Chunk and tail bytes live in a chunkdisk store: interned by content
//     hash, written through to disk (when a directory is configured), with a
//     bounded in-memory LRU of hot blobs. Resident memory is capped by the
//     LRU budget no matter how many versions accumulate; cold chunks page
//     back in on Get/Latest/AsOf/restore.
//   - Dropping versions (TruncateAfter, Drop, unlink) releases references;
//     blobs that reach zero are freed from memory immediately and their disk
//     files are unlinked later by GC (a background sweeper or explicit
//     GCNow).
//   - With a directory configured, every version's manifest is also written
//     through to a durable catalog (internal/catalog: append-only checksummed
//     log + snapshot checkpoints, in the same directory), and TruncateAfter/
//     Drop append tombstones. NewTiered over an existing directory replays
//     the catalog: the whole version history comes back into service with
//     zero re-archiving, which is what makes the archive a database-managed
//     store rather than a cache over the chunk files.
//
// A configurable latency models the paper's tertiary archive device. The
// latency of a Put is charged per NEW chunk transferred — deduplicated
// chunks never travel — so the "block new updates until archiving completes"
// behaviour stays observable while its cost tracks the delta, not the file.
//
// Locking is sharded three ways: version lists shard by (server, path) key,
// the refcount table shards by content hash, and the chunkdisk LRU shards by
// hash — concurrent archivers of different files never contend on a global
// mutex. Lock order is always entry shard → dedup shard → chunkdisk shard.
package archive

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"hash/maphash"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datalinks/internal/catalog"
	"datalinks/internal/chunkdisk"
	"datalinks/internal/extent"
	"datalinks/internal/fsyncer"
	"datalinks/internal/metrics"
	"datalinks/internal/obs"
)

// Version numbers a file's archived states, starting at 0 for the content
// at link time.
type Version int64

// checkpointEvery is the default delta-chain bound: at least every this many
// versions a full manifest is stored, so materialization applies at most this
// many deltas on top of one checkpoint (TierConfig.CheckpointEvery overrides).
const checkpointEvery = 16

// Entry is one archived version of one file: the metadata plus a handle
// through which the content can be materialized. Content() and Snapshot()
// are valid while the version remains archived (they fail after a
// TruncateAfter/Drop that discards it — the chunks may be gone).
type Entry struct {
	Server  string
	Path    string
	Version Version
	StateID uint64 // host database state identifier (tail LSN) at commit
	Size    int64
	Stored  time.Time

	st  *Store
	key string
	idx int
	gen uint64
}

// Content materializes the archived bytes (a fresh copy), paging cold chunks
// in from the disk tier as needed. Returns nil if the version has been
// discarded since the entry was obtained.
func (e Entry) Content() []byte {
	snap, err := e.Snapshot()
	if err != nil {
		return nil
	}
	defer snap.Release()
	return snap.Bytes()
}

// Snapshot materializes the version as an extent manifest for an O(#chunks)
// restore swap. The caller owns the returned snapshot and must Release it.
func (e Entry) Snapshot() (*extent.Snapshot, error) {
	if e.st == nil {
		return nil, fmt.Errorf("%w: entry not bound to a store", ErrNotFound)
	}
	return e.st.materialize(e.key, e.idx, e.gen, e.Version)
}

// Errors.
var (
	ErrNotFound = errors.New("archive: no such version")
	// ErrStale rejects a Put whose version is not newer than what is already
	// archived. Recovery treats it as benign: the version already made it to
	// the device (e.g. an archiver that survived the crash completed it).
	ErrStale = errors.New("archive: version not newer than archived")
)

// shardCount must be a power of two.
const shardCount = 16

// chunkMod is one slot of a delta manifest: chunk idx now has this hash.
type chunkMod struct {
	idx  int32
	hash extent.Hash
}

// verRec is the stored manifest of one version: either a full hash list
// (checkpoint) or a delta against the immediately preceding version.
type verRec struct {
	isFull  bool          // checkpoint: full holds every chunk hash
	full    []extent.Hash // checkpoint only (may be empty: tail-only file)
	mods    []chunkMod    // delta only: changed/new chunk slots
	nchunks int           // chunk count of this version
	tail    extent.Hash   // hash of the tail blob (tailLen > 0)
	tailLen int
}

// genCounter distinguishes successive histories of the same path (drop +
// re-link): stale Entry handles from a dropped history never resolve against
// the new one.
var genCounter atomic.Uint64

// modsForCatalog converts the in-memory delta to the catalog's wire form.
func modsForCatalog(mods []chunkMod) []catalog.Mod {
	if len(mods) == 0 {
		return nil
	}
	out := make([]catalog.Mod, len(mods))
	for i, m := range mods {
		out[i] = catalog.Mod{Idx: m.idx, Hash: m.hash}
	}
	return out
}

// fileVersions is the per-(server,path) version history.
type fileVersions struct {
	entries []Entry
	recs    []*verRec
	// last caches the newest version's full hash list so Put diffs against
	// it without walking the delta chain. O(#chunks of one version) memory
	// per archived file.
	last []extent.Hash
	gen  uint64 // distinguishes re-linked histories of the same path
}

// entryShard holds the version histories of a subset of (server, path) keys.
type entryShard struct {
	mu      sync.Mutex
	entries map[string]*fileVersions
}

// dedupEntry is one interned blob: how many version slots reference it.
// (Byte accounting lives in chunkdisk, which owns the bytes.)
type dedupEntry struct {
	refs int64
}

// dedupShard holds a subset of the content-hash refcount table.
type dedupShard struct {
	mu    sync.Mutex
	blobs map[extent.Hash]*dedupEntry
}

// PutStats reports what one Put physically did.
type PutStats struct {
	NewChunks    int   // chunks that had to be stored
	SharedChunks int   // chunks deduplicated against stored content
	DeltaChunks  int   // chunk slots recorded in the delta manifest
	NewBytes     int64 // bytes the device received (new chunks + new tail)
	DedupedBytes int64 // bytes NOT transferred thanks to dedup
}

// DedupStats is the store-wide view of the dedup machinery.
type DedupStats struct {
	LogicalBytes  int64 // sum of version sizes as archived
	NewBytes      int64 // bytes physically stored across all Puts
	DedupedBytes  int64 // logical bytes that deduplicated away
	SharedChunks  int64 // chunk references served by dedup
	ResidentBytes int64 // bytes currently resident in MEMORY (the LRU tier)
}

// TierConfig configures the durable tier.
type TierConfig struct {
	// Dir is the on-disk chunk store root; "" keeps the store memory-only.
	// With a directory, the store also keeps a durable catalog (manifest log
	// + snapshot checkpoints) there, and NewTiered replays it: a restarted
	// process serves the full pre-restart version history with zero
	// re-archiving.
	Dir string
	// MemoryBudget bounds the hot-chunk LRU (bytes); <= 0 uses the
	// chunkdisk default. Ignored when Dir is empty.
	MemoryBudget int64
	// GCInterval starts a background sweeper unlinking unreferenced disk
	// chunks this often; 0 leaves GC to explicit GCNow calls.
	GCInterval time.Duration
	// CheckpointEvery bounds the delta chain: a full manifest at least every
	// this many versions (<= 0: the package default of 16; 1 makes every
	// version a checkpoint).
	CheckpointEvery int
	// Compress flate-compresses spilled chunk files when that shrinks them;
	// content hashes are still verified on the uncompressed bytes. Ignored
	// when Dir is empty.
	Compress bool
	// CatalogCompactBytes checkpoints the catalog log once it outgrows this
	// size (<= 0: the catalog default).
	CatalogCompactBytes int64
	// Fsync selects the durability policy shared by packfile/blob writes and
	// catalog log appends: none (default — rely on the OS page cache), group
	// (concurrent committers coalesce behind shared fdatasyncs at the commit
	// barrier), or always (every append flushes inline). See internal/fsyncer.
	Fsync fsyncer.Policy
	// FsyncMaxDelay, under the group policy, lets a group-commit leader wait
	// this long before flushing so more committers join its round.
	FsyncMaxDelay time.Duration
	// PackThreshold batches blobs at or below this size into packfiles
	// (0: the chunkdisk default of one extent chunk — every tail and
	// single-chunk delta; negative: packing disabled, every blob loose).
	PackThreshold int64
	// PackTargetBytes seals the active packfile once it grows past this
	// (<= 0: the chunkdisk default).
	PackTargetBytes int64
	// PackGarbageRatio compacts a sealed packfile once this fraction of its
	// payload is dead (<= 0 or >= 1: the chunkdisk default).
	PackGarbageRatio float64
	// Metrics, if set, mirrors the tier's fsync/pack counters
	// (chunkdisk.fsyncs, chunkdisk.pack.appends, chunkdisk.pack.dead_bytes,
	// catalog.fsyncs) into a registry.
	Metrics *metrics.Registry
}

// RecoveryStats reports what NewTiered replayed from an existing archive
// directory.
type RecoveryStats struct {
	Files           int   // histories rebuilt from the catalog
	Versions        int   // versions restored to service
	DroppedVersions int   // versions discarded because a referenced blob is missing
	TornBytes       int64 // invalid catalog-log tail quarantined at open
	SnapshotRecords int   // catalog records loaded from the snapshot checkpoint
	LogRecords      int   // catalog records replayed from the log
}

// Store is an archive server. Safe for concurrent use.
type Store struct {
	shards  [shardCount]entryShard
	dedup   [shardCount]dedupShard
	disk    *chunkdisk.Store
	cat     *catalog.Catalog // nil in memory-only mode
	ckEvery int
	recov   RecoveryStats
	seed    maphash.Seed
	clock   func() time.Time

	latency atomic.Int64 // nanoseconds per device transfer unit

	// putHook, when set (tests only), runs before each catalog append and
	// can fail it — the torn-import injection point.
	putHook func(*catalog.PutRec) error

	gcStop    chan struct{}
	gcDone    chan struct{}
	closeOnce sync.Once

	// Stats for the experiment harness.
	puts         atomic.Int64
	restores     atomic.Int64
	logicalBytes atomic.Int64
	newBytes     atomic.Int64
	dedupedBytes atomic.Int64
	sharedChunks atomic.Int64
}

// New returns a memory-only archive store (the disk tier disabled). latency
// is the simulated device cost per transfer unit (one chunk's worth of new
// data for Put, one round trip for Get); zero means instant.
func New(latency time.Duration, clock func() time.Time) *Store {
	s, err := NewTiered(latency, clock, TierConfig{})
	if err != nil {
		// Memory-only construction cannot fail.
		panic(err)
	}
	return s
}

// NewTiered returns an archive store with the durable tier configured. With
// a directory, any version history a previous process left there (catalog +
// chunk files) is replayed back into service before the store returns: the
// full index is rebuilt, chunk refcounts re-pinned, and every referenced blob
// verified present — versions referencing missing blobs are dropped rather
// than failing the open, and a torn catalog-log tail is quarantined. See
// Recovery for what was replayed.
func NewTiered(latency time.Duration, clock func() time.Time, tier TierConfig) (*Store, error) {
	if clock == nil {
		clock = time.Now
	}
	disk, err := chunkdisk.Open(chunkdisk.Config{
		Dir:              tier.Dir,
		MemoryBudget:     tier.MemoryBudget,
		Compress:         tier.Compress,
		PackThreshold:    tier.PackThreshold,
		PackTargetBytes:  tier.PackTargetBytes,
		PackGarbageRatio: tier.PackGarbageRatio,
		Fsync:            tier.Fsync,
		FsyncMaxDelay:    tier.FsyncMaxDelay,
		Metrics:          tier.Metrics,
	})
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	s := &Store{seed: maphash.MakeSeed(), clock: clock, disk: disk, ckEvery: tier.CheckpointEvery}
	if s.ckEvery <= 0 {
		s.ckEvery = checkpointEvery
	}
	s.latency.Store(int64(latency))
	for i := range s.shards {
		s.shards[i].entries = make(map[string]*fileVersions)
		s.dedup[i].blobs = make(map[extent.Hash]*dedupEntry)
	}
	if tier.Dir != "" {
		cat, err := catalog.Open(tier.Dir, catalog.Config{
			CompactBytes:  tier.CatalogCompactBytes,
			Fsync:         tier.Fsync,
			FsyncMaxDelay: tier.FsyncMaxDelay,
			Metrics:       tier.Metrics,
		})
		if err != nil {
			disk.Close()
			return nil, fmt.Errorf("archive: %w", err)
		}
		repaired := s.replay(cat)
		// Persist the folded-in log and any repairs as a fresh checkpoint so
		// the next open starts from a snapshot and an empty log. A clean
		// snapshot-only open (nothing to fold, nothing repaired) skips the
		// rewrite — cold-open cost must not grow with archive size for a
		// no-op.
		if cat.LogSize() > 0 || s.recov.TornBytes > 0 || repaired {
			if err := cat.Compact(); err != nil {
				cat.Close()
				disk.Close()
				return nil, fmt.Errorf("archive: %w", err)
			}
		}
		s.cat = cat
	}
	if tier.Dir != "" && tier.GCInterval > 0 {
		s.gcStop = make(chan struct{})
		s.gcDone = make(chan struct{})
		go s.gcLoop(tier.GCInterval)
	}
	return s, nil
}

// replay rebuilds the in-memory version index from the catalog's shadow
// state: for every key, walk the delta chain oldest-first, verify every blob
// a version references actually exists in the chunk store, and only then
// re-pin one blob reference per chunk slot (and tail) — so a version that
// proves unservable never un-deadens blobs it will not use. The first
// version referencing a missing blob ends that key's history — it and
// everything after it are dropped (later deltas chain through it, and blobs
// only vanish through corruption or manual deletion, so the safe prefix is
// what remains). repaired reports whether any history was trimmed (the
// caller then persists the repair via a catalog checkpoint).
func (s *Store) replay(cat *catalog.Catalog) (repaired bool) {
	st := cat.Stats()
	s.recov.TornBytes = st.TornBytes
	s.recov.SnapshotRecords = st.SnapshotRecords
	s.recov.LogRecords = st.LogRecords
	exists := make(map[extent.Hash]bool)
	has := func(h extent.Hash) bool {
		ok, seen := exists[h]
		if !seen {
			ok = s.disk.Has(h)
			exists[h] = ok
		}
		return ok
	}
	claimed := make(map[extent.Hash]struct{})
	claim := func(h extent.Hash) {
		if _, done := claimed[h]; !done {
			s.disk.Claim(h)
			claimed[h] = struct{}{}
		}
	}
	for _, k := range cat.Keys() {
		hist := cat.History(k)
		server, path, ok := splitKey(k)
		if !ok {
			// Not a key this store ever writes; ignore rather than guess.
			cat.Trim(k, 0)
			repaired = true
			continue
		}
		fv := &fileVersions{gen: genCounter.Add(1)}
		var full []extent.Hash
		keep := len(hist)
	scan:
		for i, pr := range hist {
			rec := recFromCatalog(pr)
			full = applyRec(full, rec)
			for _, h := range full {
				if !has(h) {
					keep = i
					break scan
				}
			}
			if rec.tailLen > 0 && !has(rec.tail) {
				keep = i
				break scan
			}
			// The version is servable: un-deaden and pin its references,
			// then index it.
			for _, h := range full {
				claim(h)
				s.addRef(h)
			}
			if rec.tailLen > 0 {
				claim(rec.tail)
				s.addRef(rec.tail)
			}
			fv.push(s, k, server, path, pr, rec, full)
		}
		if keep < len(hist) {
			cat.Trim(k, keep)
			s.recov.DroppedVersions += len(hist) - keep
			repaired = true
		}
		if keep == 0 {
			continue
		}
		sh := s.shardFor(k)
		sh.mu.Lock()
		sh.entries[k] = fv
		sh.mu.Unlock()
		s.recov.Files++
		s.recov.Versions += keep
	}
	return repaired
}

// recFromCatalog converts a durable manifest record to the in-memory form,
// sharing the (frozen) hash slices.
func recFromCatalog(pr *catalog.PutRec) *verRec {
	rec := &verRec{
		isFull:  pr.IsFull,
		full:    pr.Full,
		nchunks: pr.NChunks,
		tail:    pr.TailHash,
		tailLen: pr.TailLen,
	}
	if !pr.IsFull {
		rec.mods = make([]chunkMod, len(pr.Mods))
		for i, m := range pr.Mods {
			rec.mods[i] = chunkMod{idx: m.Idx, hash: m.Hash}
		}
	}
	return rec
}

// catalogRec builds the durable manifest of version e (stored as rec) under
// key k — what PutSnapshot logs and ExportDelta ships. The hash lists are
// shared, not copied: both are frozen once a version exists.
func catalogRec(k string, e *Entry, rec *verRec) *catalog.PutRec {
	return &catalog.PutRec{
		Key:            k,
		Version:        int64(e.Version),
		StateID:        e.StateID,
		Size:           e.Size,
		StoredUnixNano: e.Stored.UnixNano(),
		NChunks:        rec.nchunks,
		TailLen:        rec.tailLen,
		TailHash:       rec.tail,
		IsFull:         rec.isFull,
		Full:           rec.full,
		Mods:           modsForCatalog(rec.mods),
	}
}

// logPut appends one manifest to the durable catalog. Caller holds the
// entry shard lock and has checked s.cat != nil.
func (s *Store) logPut(pr *catalog.PutRec) error {
	if s.putHook != nil {
		if err := s.putHook(pr); err != nil {
			return err
		}
	}
	return s.cat.AppendPut(pr)
}

// push indexes the version pr describes (stored as rec, with the complete
// hash list full) as the newest of fv, the history of key k.
func (fv *fileVersions) push(s *Store, k, server, path string, pr *catalog.PutRec, rec *verRec, full []extent.Hash) {
	fv.recs = append(fv.recs, rec)
	fv.entries = append(fv.entries, Entry{
		Server:  server,
		Path:    path,
		Version: Version(pr.Version),
		StateID: pr.StateID,
		Size:    pr.Size,
		Stored:  time.Unix(0, pr.StoredUnixNano),
		st:      s,
		key:     k,
		idx:     len(fv.entries),
		gen:     fv.gen,
	})
	fv.last = full
}

// applyRec advances a full hash list by one version record (a fresh slice is
// returned; prev is not aliased).
func applyRec(prev []extent.Hash, rec *verRec) []extent.Hash {
	if rec.isFull {
		return append([]extent.Hash(nil), rec.full...)
	}
	return applyDelta(append([]extent.Hash(nil), prev...), rec)
}

// Recovery reports what NewTiered replayed from the archive directory (zero
// for a fresh or memory-only store).
func (s *Store) Recovery() RecoveryStats { return s.recov }

// gcLoop sweeps dead disk chunks until Close.
func (s *Store) gcLoop(interval time.Duration) {
	defer close(s.gcDone)
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			s.disk.Sweep()
		case <-s.gcStop:
			return
		}
	}
}

// GCNow sweeps dead disk chunks immediately, returning how many files were
// freed (tests and explicit maintenance).
func (s *Store) GCNow() int { return s.disk.Sweep() }

// Close stops the background GC (if any), sweeps dead disk chunks one final
// time, closes the durable catalog and the disk tier (sealing the active
// packfile and releasing the archive-dir lock). A memory-only store remains
// usable afterwards; a tiered store rejects further Puts (its catalog is
// closed) but keeps serving memory-resident reads. Idempotent.
func (s *Store) Close() {
	s.closeOnce.Do(func() {
		if s.gcStop != nil {
			close(s.gcStop)
			<-s.gcDone
		}
		s.disk.Sweep()
		if s.cat != nil {
			s.cat.Close()
		}
		s.disk.Close()
	})
}

// Crash simulates the archive process dying for tests: no final sweep, no
// pack seal fsync — the directory is left exactly as the OS had it, and the
// single-owner lock is released so a successor store can open it (a real
// crash releases it too, via the lockfile's dead-pid check).
func (s *Store) Crash() {
	s.closeOnce.Do(func() {
		if s.gcStop != nil {
			close(s.gcStop)
			<-s.gcDone
		}
		if s.cat != nil {
			s.cat.Close()
		}
		s.disk.Crash()
	})
}

// Fsyncs reports the physical fdatasync calls the durable tier has issued:
// chunk/pack flushes (chunkdisk) and manifest-log flushes (catalog). Both
// are zero under FsyncPolicy none.
func (s *Store) Fsyncs() (chunk, cat int64) {
	chunk = s.disk.Stats().Fsyncs
	if s.cat != nil {
		cat = s.cat.Fsyncs()
	}
	return chunk, cat
}

func key(server, path string) string { return server + "\x00" + path }

// splitKey is key's inverse (catalog replay).
func splitKey(k string) (server, path string, ok bool) {
	i := strings.IndexByte(k, 0)
	if i < 0 {
		return "", "", false
	}
	return k[:i], k[i+1:], true
}

// shardFor picks the entry shard for a key.
func (s *Store) shardFor(k string) *entryShard {
	return &s.shards[maphash.String(s.seed, k)&(shardCount-1)]
}

// dedupFor picks the dedup shard for a content hash.
func (s *Store) dedupFor(h extent.Hash) *dedupShard {
	return &s.dedup[h[0]&(shardCount-1)]
}

// SetLatency adjusts the simulated device latency.
func (s *Store) SetLatency(d time.Duration) { s.latency.Store(int64(d)) }

// sleep charges the device cost for units transfer units (minimum one round
// trip per operation).
func (s *Store) sleep(units int64) {
	d := time.Duration(s.latency.Load())
	if d <= 0 {
		return
	}
	if units < 1 {
		units = 1
	}
	time.Sleep(d * time.Duration(units))
}

// addRef takes one reference on a blob hash, reporting whether the blob is
// new to the refcount table.
func (s *Store) addRef(h extent.Hash) (fresh bool) {
	ds := s.dedupFor(h)
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if e, ok := ds.blobs[h]; ok {
		e.refs++
		return false
	}
	ds.blobs[h] = &dedupEntry{refs: 1}
	return true
}

// releaseRef drops one reference; at zero the blob leaves the refcount table
// and its storage is dropped (memory immediately, disk at the next sweep).
func (s *Store) releaseRef(h extent.Hash) {
	ds := s.dedupFor(h)
	ds.mu.Lock()
	e, ok := ds.blobs[h]
	if ok {
		e.refs--
		if e.refs == 0 {
			delete(ds.blobs, h)
		} else {
			ok = false
		}
	}
	ds.mu.Unlock()
	if ok {
		s.disk.Drop(h)
	}
}

// releaseRec releases every blob reference a version's full hash list holds.
func (s *Store) releaseRec(hashes []extent.Hash, rec *verRec) {
	for _, h := range hashes {
		s.releaseRef(h)
	}
	if rec.tailLen > 0 {
		s.releaseRef(rec.tail)
	}
}

// applyDelta advances hashes by one delta record in place (resize to the
// record's chunk count, then apply the changed slots) — the single
// implementation of the chain-step semantics, shared by live materialization
// (hashesAt) and catalog replay (applyRec).
func applyDelta(hashes []extent.Hash, rec *verRec) []extent.Hash {
	if rec.nchunks <= len(hashes) {
		hashes = hashes[:rec.nchunks]
	} else {
		hashes = append(hashes, make([]extent.Hash, rec.nchunks-len(hashes))...)
	}
	for _, m := range rec.mods {
		hashes[m.idx] = m.hash
	}
	return hashes
}

// hashesAt materializes the full hash list of version index idx by walking
// back to the nearest checkpoint and applying deltas forward. Caller holds
// the entry shard lock.
func hashesAt(fv *fileVersions, idx int) []extent.Hash {
	base := idx
	for !fv.recs[base].isFull {
		base--
	}
	hashes := append([]extent.Hash(nil), fv.recs[base].full...)
	for i := base + 1; i <= idx; i++ {
		hashes = applyDelta(hashes, fv.recs[i])
	}
	return hashes
}

// PutSnapshot archives a version of a file from an extent manifest. The
// snapshot is not consumed — the store interns the content by hash.
// Versions must be archived in increasing order per file; re-archiving an
// existing version returns ErrStale (versions are immutable).
func (s *Store) PutSnapshot(server, path string, v Version, stateID uint64, snap *extent.Snapshot) (PutStats, error) {
	return s.PutSnapshotCtx(context.Background(), server, path, v, stateID, snap)
}

// PutSnapshotCtx is PutSnapshot carrying a trace context: when the context
// holds a span, the commit durability barrier gets an "archive.barrier" span
// whose "fsync" child records which group-commit round (pack and catalog)
// made this version durable.
func (s *Store) PutSnapshotCtx(ctx context.Context, server, path string, v Version, stateID uint64, snap *extent.Snapshot) (PutStats, error) {
	var st PutStats
	chunks := snap.Chunks()
	hashes := make([]extent.Hash, len(chunks))
	// Intern every chunk first: the references pin the blobs, so a stale
	// rejection can unwind symmetrically and a concurrent drop of an older
	// version can never free content this version shares.
	for i, c := range chunks {
		h := c.Hash()
		hashes[i] = h
		if s.addRef(h) {
			wrote, err := s.disk.Put(h, c)
			if err != nil {
				// Undo what we interned so far; the device rejected the blob.
				for _, uh := range hashes[:i+1] {
					s.releaseRef(uh)
				}
				return PutStats{}, err
			}
			if wrote {
				st.NewChunks++
				st.NewBytes += extent.ChunkSize
			} else {
				// Revived a dead blob: on the device already, no transfer.
				st.SharedChunks++
				st.DedupedBytes += extent.ChunkSize
			}
		} else {
			st.SharedChunks++
			st.DedupedBytes += extent.ChunkSize
		}
	}
	tail := snap.Tail()
	var tailHash extent.Hash
	if len(tail) > 0 {
		tailHash = sha256.Sum256(tail)
		if s.addRef(tailHash) {
			tc := extent.WrapChunk(append([]byte(nil), tail...), tailHash)
			wrote, err := s.disk.Put(tailHash, tc)
			tc.ReleaseChunk()
			if err != nil {
				for _, uh := range hashes {
					s.releaseRef(uh)
				}
				s.releaseRef(tailHash)
				return PutStats{}, err
			}
			if wrote {
				st.NewBytes += int64(len(tail))
			} else {
				st.DedupedBytes += int64(len(tail))
			}
		} else {
			st.DedupedBytes += int64(len(tail))
		}
	}
	rec := &verRec{nchunks: len(hashes), tail: tailHash, tailLen: len(tail)}

	k := key(server, path)
	sh := s.shardFor(k)
	sh.mu.Lock()
	fv := sh.entries[k]
	if fv == nil {
		fv = &fileVersions{gen: genCounter.Add(1)}
		sh.entries[k] = fv
	}
	if n := len(fv.entries); n > 0 && fv.entries[n-1].Version >= v {
		last := fv.entries[n-1].Version
		sh.mu.Unlock()
		s.releaseRec(hashes, rec)
		return PutStats{}, fmt.Errorf("%w: version %d of %s (archived %d)", ErrStale, v, path, last)
	}
	// Delta against the cached predecessor list; checkpoint when the delta
	// would not save metadata or the chain is due for one.
	var mods []chunkMod
	sinceFull := 0
	for i := len(fv.recs) - 1; i >= 0 && !fv.recs[i].isFull; i-- {
		sinceFull++
	}
	if len(fv.recs) > 0 {
		prev := fv.last
		for i, h := range hashes {
			if i >= len(prev) || prev[i] != h {
				mods = append(mods, chunkMod{idx: int32(i), hash: h})
			}
		}
	}
	if len(fv.recs) == 0 || sinceFull+1 >= s.ckEvery || len(mods)*2 >= len(hashes) {
		rec.isFull = true
		rec.full = append([]extent.Hash(nil), hashes...)
	} else {
		rec.mods = mods
	}
	st.DeltaChunks = len(mods)
	size := snap.Len()
	stored := s.clock()
	prevLast := fv.last
	fv.recs = append(fv.recs, rec)
	fv.entries = append(fv.entries, Entry{
		Server:  server,
		Path:    path,
		Version: v,
		StateID: stateID,
		Size:    size,
		Stored:  stored,
		st:      s,
		key:     k,
		idx:     len(fv.entries),
		gen:     fv.gen,
	})
	fv.last = hashes
	if s.cat != nil {
		// Write the manifest through to the durable catalog before the
		// version becomes visible outside the shard lock. The chunk bytes are
		// already on the device (written above), so a crash right here loses
		// only this version's index entry — its blobs are adopted as dead and
		// swept at the next open, and recovery's pending-archive pass
		// re-archives the version.
		if err := s.logPut(catalogRec(k, &fv.entries[len(fv.entries)-1], rec)); err != nil {
			// Unwind the insert: an unlogged version must not be served (it
			// would silently vanish at the next restart).
			fv.recs = fv.recs[:len(fv.recs)-1]
			fv.entries = fv.entries[:len(fv.entries)-1]
			fv.last = prevLast
			if len(fv.entries) == 0 {
				delete(sh.entries, k)
			}
			sh.mu.Unlock()
			s.releaseRec(hashes, rec)
			return PutStats{}, fmt.Errorf("archive: catalog: %w", err)
		}
	}
	sh.mu.Unlock()
	if s.cat != nil {
		// Checkpoint the catalog if this append pushed the log past its
		// threshold — outside the shard lock, so a large snapshot write never
		// stalls this shard's readers. Best-effort: on failure the log keeps
		// growing and a later append retries.
		_ = s.cat.CompactIfDue()
	}
	// Commit durability barrier (group policy; no-op under none/always):
	// one coalesced fdatasync covers this commit's pack appends, then one
	// covers its catalog append — shared with every concurrent committer.
	// Blobs flush before the manifest so a crash between the two leaves a
	// manifest whose blobs exist (the reverse would reference lost bytes,
	// which replay would then have to drop). The version is already indexed;
	// a barrier failure reports that its durability is not established.
	bar := obs.SpanFrom(ctx).Child("archive.barrier")
	fsp := bar.Child("fsync")
	round, err := s.disk.SyncRound()
	fsp.SetAttr("round", int64(round))
	if err != nil {
		fsp.End()
		bar.End()
		return st, err
	}
	if s.cat != nil {
		cround, cerr := s.cat.SyncRound()
		fsp.SetAttr("catalog_round", int64(cround))
		if cerr != nil {
			fsp.End()
			bar.End()
			return st, fmt.Errorf("archive: catalog: %w", cerr)
		}
	}
	fsp.End()
	bar.End()

	s.puts.Add(1)
	s.logicalBytes.Add(size)
	s.newBytes.Add(st.NewBytes)
	s.dedupedBytes.Add(st.DedupedBytes)
	s.sharedChunks.Add(int64(st.SharedChunks))

	// Device transfer: only new chunks travel.
	s.sleep(int64(st.NewChunks))
	return st, nil
}

// Put archives a version from a flat byte slice (content is copied).
func (s *Store) Put(server, path string, v Version, stateID uint64, content []byte) error {
	snap := extent.FromBytes(content)
	_, err := s.PutSnapshot(server, path, v, stateID, snap)
	snap.Release()
	return err
}

// materialize rebuilds version idx of key as a caller-owned snapshot. The
// blob refs are pinned under the shard lock (so a concurrent truncate/drop
// cannot free them), then the chunks are fetched — possibly paging in from
// disk — without holding any entry lock. The version check catches a slot
// that was truncated and re-filled by a newer Put since the handle was
// obtained: the handle must error, never serve a different version's bytes.
func (s *Store) materialize(k string, idx int, gen uint64, v Version) (*extent.Snapshot, error) {
	sh := s.shardFor(k)
	sh.mu.Lock()
	fv := sh.entries[k]
	if fv == nil || fv.gen != gen || idx >= len(fv.recs) || fv.entries[idx].Version != v {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: version discarded", ErrNotFound)
	}
	rec := fv.recs[idx]
	hashes := hashesAt(fv, idx)
	// Pin every blob with a temporary reference.
	for _, h := range hashes {
		s.addRef(h)
	}
	if rec.tailLen > 0 {
		s.addRef(rec.tail)
	}
	tailHash, tailLen := rec.tail, rec.tailLen
	sh.mu.Unlock()

	unpin := func() {
		for _, h := range hashes {
			s.releaseRef(h)
		}
		if tailLen > 0 {
			s.releaseRef(tailHash)
		}
	}

	chunks := make([]*extent.Chunk, 0, len(hashes))
	fail := func(err error) (*extent.Snapshot, error) {
		for _, c := range chunks {
			c.ReleaseChunk()
		}
		unpin()
		return nil, err
	}
	for _, h := range hashes {
		c, err := s.disk.Get(h)
		if err != nil {
			return fail(err)
		}
		chunks = append(chunks, c)
	}
	var tail []byte
	if tailLen > 0 {
		tc, err := s.disk.Get(tailHash)
		if err != nil {
			return fail(err)
		}
		tail = tc.Data()
		snap := extent.BuildSnapshot(chunks, tail)
		tc.ReleaseChunk()
		unpin()
		return snap, nil
	}
	snap := extent.BuildSnapshot(chunks, nil)
	unpin()
	return snap, nil
}

// Get returns a specific archived version.
func (s *Store) Get(server, path string, v Version) (Entry, error) {
	s.sleep(1)
	k := key(server, path)
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fv := sh.entries[k]; fv != nil {
		for _, e := range fv.entries {
			if e.Version == v {
				s.restores.Add(1)
				return e, nil
			}
		}
	}
	return Entry{}, fmt.Errorf("%w: %s v%d", ErrNotFound, path, v)
}

// Latest returns the newest archived version of a file.
func (s *Store) Latest(server, path string) (Entry, error) {
	s.sleep(1)
	k := key(server, path)
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fv := sh.entries[k]
	if fv == nil || len(fv.entries) == 0 {
		return Entry{}, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	s.restores.Add(1)
	return fv.entries[len(fv.entries)-1], nil
}

// AsOf returns the newest version whose StateID is <= stateID — the version
// that was current when the database was at that state (§4.4).
func (s *Store) AsOf(server, path string, stateID uint64) (Entry, error) {
	s.sleep(1)
	k := key(server, path)
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fv := sh.entries[k]; fv != nil {
		for i := len(fv.entries) - 1; i >= 0; i-- {
			if fv.entries[i].StateID <= stateID {
				s.restores.Add(1)
				return fv.entries[i], nil
			}
		}
	}
	return Entry{}, fmt.Errorf("%w: %s as of state %d", ErrNotFound, path, stateID)
}

// TruncateAfter discards versions with StateID > stateID (used when the
// database itself is restored to an earlier point in time). The tombstone is
// logged before any state changes: on a catalog failure nothing is dropped
// and the error is returned, so memory and the durable log can never
// disagree about which versions exist (dropped blobs linger on disk until a
// sweep, and an un-tombstoned restart would resurrect them).
func (s *Store) TruncateAfter(server, path string, stateID uint64) error {
	k := key(server, path)
	sh := s.shardFor(k)
	sh.mu.Lock()
	fv := sh.entries[k]
	if fv == nil {
		sh.mu.Unlock()
		return nil
	}
	cut := len(fv.entries)
	for i, e := range fv.entries {
		if e.StateID > stateID {
			cut = i
			break
		}
	}
	if cut == len(fv.entries) {
		sh.mu.Unlock()
		return nil
	}
	if s.cat != nil {
		if err := s.cat.AppendTruncate(k, cut); err != nil {
			sh.mu.Unlock()
			return fmt.Errorf("archive: catalog: %w", err)
		}
	}
	// Materialize the dropped versions' hash lists before mutating the
	// chain (their checkpoints may themselves be dropped).
	type dropped struct {
		hashes []extent.Hash
		rec    *verRec
	}
	drops := make([]dropped, 0, len(fv.entries)-cut)
	for i := cut; i < len(fv.entries); i++ {
		drops = append(drops, dropped{hashes: hashesAt(fv, i), rec: fv.recs[i]})
	}
	fv.entries = fv.entries[:cut]
	fv.recs = fv.recs[:cut]
	if cut == 0 {
		delete(sh.entries, k)
	} else {
		fv.last = hashesAt(fv, cut-1)
	}
	sh.mu.Unlock()
	if s.cat != nil {
		_ = s.cat.CompactIfDue()
		// The tombstone follows the same commit barrier as puts (best-effort:
		// the in-memory truncate already happened; a failed flush only widens
		// the window in which a crash resurrects the dropped suffix).
		_ = s.cat.Sync()
	}
	for _, d := range drops {
		s.releaseRec(d.hashes, d.rec)
	}
	return nil
}

// Versions lists the archived versions of a file in order.
func (s *Store) Versions(server, path string) []Entry {
	k := key(server, path)
	sh := s.shardFor(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fv := sh.entries[k]
	if fv == nil {
		return nil
	}
	out := make([]Entry, len(fv.entries))
	copy(out, fv.entries)
	return out
}

// Files lists every archived path for a server, sorted.
func (s *Store) Files(server string) []string {
	var out []string
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k := range sh.entries {
			if len(k) > len(server) && k[:len(server)] == server && k[len(server)] == 0 {
				out = append(out, k[len(server)+1:])
			}
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// Drop discards every version of a file (after unlink with no recovery
// need). Tombstone-first like TruncateAfter: a catalog failure drops nothing.
func (s *Store) Drop(server, path string) error {
	k := key(server, path)
	sh := s.shardFor(k)
	sh.mu.Lock()
	fv := sh.entries[k]
	if fv == nil {
		sh.mu.Unlock()
		return nil
	}
	if s.cat != nil {
		if err := s.cat.AppendDrop(k); err != nil {
			sh.mu.Unlock()
			return fmt.Errorf("archive: catalog: %w", err)
		}
	}
	type dropped struct {
		hashes []extent.Hash
		rec    *verRec
	}
	drops := make([]dropped, 0, len(fv.entries))
	for i := range fv.entries {
		drops = append(drops, dropped{hashes: hashesAt(fv, i), rec: fv.recs[i]})
	}
	delete(sh.entries, k)
	sh.mu.Unlock()
	if s.cat != nil {
		_ = s.cat.CompactIfDue()
		_ = s.cat.Sync() // tombstone barrier, best-effort like TruncateAfter's
	}
	for _, d := range drops {
		s.releaseRec(d.hashes, d.rec)
	}
	return nil
}

// Stats reports operation counts for benchmarks. bytes is the logical size
// archived (what the paper's flat copy would have moved); the physically
// stored delta is in Dedup().
func (s *Store) Stats() (puts, restores, bytes int64) {
	return s.puts.Load(), s.restores.Load(), s.logicalBytes.Load()
}

// Dedup reports the chunk-dedup counters. ResidentBytes is memory-resident
// bytes only: with the disk tier enabled it is bounded by the LRU budget,
// while the full deduplicated content lives in Tier().DiskBytes.
func (s *Store) Dedup() DedupStats {
	return DedupStats{
		LogicalBytes:  s.logicalBytes.Load(),
		NewBytes:      s.newBytes.Load(),
		DedupedBytes:  s.dedupedBytes.Load(),
		SharedChunks:  s.sharedChunks.Load(),
		ResidentBytes: s.disk.Stats().ResidentBytes,
	}
}

// Tier reports the durable-tier counters (spill, page-in, eviction, GC).
func (s *Store) Tier() chunkdisk.Stats { return s.disk.Stats() }

// TierDir reports the on-disk store root ("" when memory-only).
func (s *Store) TierDir() string { return s.disk.Dir() }
