package dlfm

import (
	"fmt"
	"strings"
	"time"

	"datalinks/internal/extent"
	"datalinks/internal/sqlmini"
)

// Shard handoff: the per-path half of live migration between DLFM servers.
// The protocol is freeze → catch up → promote → evict:
//
//   - BeginExport drains the path (waits for in-flight opens and archive jobs
//     exactly like a write open would) and then freezes it by installing a
//     sentinel writer, so every later open parks on the path's wait queue
//     until the migration ends. It returns a bundle: the promotion identity
//     and version, plus an O(#chunks) snapshot of the current content.
//   - The caller catches the destination's archive history up exactly as it
//     catches a lagging replica up (archive.ExportDelta/ImportDelta — chunk
//     bytes travel by hash, deduped; a destination that already replicates
//     the path receives only what it lacks).
//   - ImportBundle promotes the destination: content, ownership,
//     permissions, and — critically — the source's mtime, because mtime is how
//     commit detects modification (§4.4); a fresh mtime would make the next
//     writer's no-op close look like a real update. The destination's replica
//     row, if any, retires in the same repository transaction — the same step
//     PromoteReplica runs at failover.
//   - EndExport either evicts the path from the source (rows deleted, phys
//     file removed, tokens purged) or aborts the export, and in both cases
//     lifts the freeze.
//
// Routing above this layer must already gate new traffic for the path to the
// destination; the freeze here only covers stragglers that were past the
// router when the gate went up.

// exportSentinel is the writer id installed by BeginExport. It is never a
// real open id (real ids are monotonic counters shifted by the shard bits, so
// reaching all-ones would take centuries of opens), so nothing but EndExport
// can clear it.
const exportSentinel = ^uint64(0)

// FileBundle is the portable per-path repository state: the promotion
// identity a replica row carries, plus the version, content and mtime.
type FileBundle struct {
	Path string
	ReplicaMeta
	Version int64
	// Content is the current physical content (the committed state — the
	// drain guarantees no update is in flight). The receiver of the bundle
	// owns it and must Release it (ImportBundle does not consume it).
	Content *extent.Snapshot
	Mtime   time.Time // physical mtime at export; preserved on import
}

// Release frees the bundle's content snapshot.
func (b *FileBundle) Release() {
	if b != nil && b.Content != nil {
		b.Content.Release()
		b.Content = nil
	}
}

// BeginExport drains and freezes a linked path, returning its bundle. On
// success the path rejects every new open until EndExport.
// Returns ErrFileBusy if the drain exceeds the configured open wait, and
// ErrNotLinked if the path is not (or no longer) linked.
func (s *Server) BeginExport(path string) (*FileBundle, error) {
	sh, _ := s.pathShard(path)
	sh.mu.Lock()
	// Drain: no writer, no readers, no archive job. Readers drain too — a
	// reader's close upcall routes by path, and after the move it would reach
	// a server that never saw its open.
	if !s.waitLocked(sh, path, func(st *syncState) bool {
		return st.writer == 0 && len(st.readers) == 0
	}) {
		sh.mu.Unlock()
		return nil, fmt.Errorf("%w: %s (drain timed out)", ErrFileBusy, path)
	}
	st := s.syncFor(sh, path)
	st.writer = exportSentinel
	sh.mu.Unlock()

	unfreeze := func() {
		sh.mu.Lock()
		if sy, ok := sh.syncs[path]; ok && sy.writer == exportSentinel {
			sy.writer = 0
			sy.wake()
			if sy.idle() {
				delete(sh.syncs, path)
			}
		}
		sh.mu.Unlock()
	}

	// Re-read the row after the freeze: the path may have been unlinked while
	// the drain waited.
	meta, ver, mtime, err := s.FileMeta(path)
	if err != nil {
		unfreeze()
		return nil, err
	}
	snap, err := s.cfg.Phys.SnapshotFile(path)
	if err != nil {
		unfreeze()
		return nil, fmt.Errorf("dlfm: export snapshot %s: %w", path, err)
	}
	s.cfg.Metrics.Counter("dlfm.shard.exports").Inc()
	return &FileBundle{Path: path, ReplicaMeta: meta, Version: ver, Content: snap, Mtime: mtime}, nil
}

// EndExport concludes an export begun by BeginExport. With evict the path is
// removed from this server entirely — repository rows, physical file, token
// entries; without it only the freeze is lifted (the import failed and the
// source remains the owner). Callers drop the archive history separately.
func (s *Server) EndExport(path string, evict bool) error {
	var firstErr error
	if evict {
		if _, err := s.repo.Exec(`DELETE FROM dlfm_files WHERE path = ?`, sqlmini.Str(path)); err != nil {
			firstErr = err
		}
		s.clearUpdateEntry(path)
		if _, err := s.repo.Exec(`DELETE FROM dlfm_pending_archive WHERE path = ?`, sqlmini.Str(path)); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := s.cfg.Phys.Remove(path, rootCred); err != nil && firstErr == nil {
			firstErr = err
		}
		s.purgeTokens(path)
		s.cfg.Metrics.Counter("dlfm.shard.evictions").Inc()
	}
	sh, _ := s.pathShard(path)
	sh.mu.Lock()
	delete(sh.takeovers, path)
	if sy, ok := sh.syncs[path]; ok && sy.writer == exportSentinel {
		sy.writer = 0
		sy.wake()
		if sy.idle() {
			delete(sh.syncs, path)
		}
	}
	sh.mu.Unlock()
	return firstErr
}

// ImportBundle establishes a migrated or promoted path on this server:
// physical content with the source's mtime, at-rest ownership and
// permissions, and the repository row. Any dlfm_replicas row for the path
// retires in the same repository transaction, so this server ends as the
// path's owner, never as owner and replica both. The bundle's content is not
// consumed. The path must not already be linked here. Like ReconcileLinks,
// this runs outside 2PC — the migration protocol above it owns atomicity.
func (s *Server) ImportBundle(b *FileBundle) error {
	if _, linked := s.lookupFile(b.Path); linked {
		return fmt.Errorf("%w: import of %s", ErrAlreadyLinked, b.Path)
	}
	if i := strings.LastIndexByte(b.Path, '/'); i > 0 {
		if err := s.cfg.Phys.MkdirAll(b.Path[:i], rootCred, 0o755); err != nil {
			return fmt.Errorf("dlfm: import mkdir %s: %w", b.Path, err)
		}
	}
	if err := s.cfg.Phys.WriteFileSnapshot(b.Path, b.Content); err != nil {
		return fmt.Errorf("dlfm: import content %s: %w", b.Path, err)
	}
	node, err := s.cfg.Phys.Lookup(b.Path)
	if err != nil {
		return err
	}
	// Original identity first, then the control mode's at-rest constraints on
	// top (the same two layers a link applies).
	if err := s.cfg.Phys.Chown(node, rootCred, b.OrigUID); err != nil {
		return err
	}
	if err := s.cfg.Phys.Chmod(node, rootCred, b.OrigMode); err != nil {
		return err
	}
	if err := s.applyLinkState(node, b.Mode); err != nil {
		return err
	}
	// Mtime last: every step above may have touched it, and modification
	// detection compares against exactly this value at the next write open.
	if err := s.cfg.Phys.SetMtime(node, b.Mtime); err != nil {
		return err
	}
	tx := s.repo.Begin()
	if _, err := tx.Exec(
		`INSERT INTO dlfm_files (path, mode, recovery, token_ttl, orig_uid, orig_mode, cur_version)
		 VALUES (?, ?, ?, ?, ?, ?, ?)`,
		sqlmini.Str(b.Path), sqlmini.Str(b.Mode.String()), sqlmini.Bool(b.Recovery),
		sqlmini.Int(int64(b.TokenTTL)), sqlmini.Int(int64(b.OrigUID)), sqlmini.Int(int64(b.OrigMode)),
		sqlmini.Int(b.Version)); err != nil {
		_ = tx.Abort()
		return fmt.Errorf("dlfm: import row %s: %w", b.Path, err)
	}
	if _, err := tx.Exec(`DELETE FROM dlfm_replicas WHERE path = ?`, sqlmini.Str(b.Path)); err != nil {
		_ = tx.Abort()
		return fmt.Errorf("dlfm: import row %s: %w", b.Path, err)
	}
	if err := tx.Commit(); err != nil {
		return fmt.Errorf("dlfm: import row %s: %w", b.Path, err)
	}
	s.cfg.Metrics.Counter("dlfm.shard.imports").Inc()
	return nil
}
