package dlfm

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"datalinks/internal/extent"
	"datalinks/internal/fs"
)

// shipTo applies the owner's current state of path to a replica peer, the way
// the cluster shipper does at the commit barrier.
func shipTo(t *testing.T, src *Server, srcPhys *fs.FS, dst *Server, path string) {
	t.Helper()
	meta, ver, mtime, err := src.FileMeta(path)
	if err != nil {
		t.Fatalf("file meta: %v", err)
	}
	snap, err := srcPhys.SnapshotFile(path)
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	defer snap.Release()
	if err := dst.ApplyReplicaCommit(path, ver, src.cfg.Host.StateID(), snap, mtime, meta); err != nil {
		t.Fatalf("apply replica commit v%d: %v", ver, err)
	}
}

func TestReplicaApplyAndRow(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	dst, _ := newShardPeer(t)

	shipTo(t, src, srcPhys, dst, "/d/f.bin")
	if got := dst.ReplicaVersion("/d/f.bin"); got != 0 {
		t.Fatalf("replica version = %d, want 0", got)
	}
	if paths := dst.ReplicaPaths(); len(paths) != 1 || paths[0] != "/d/f.bin" {
		t.Fatalf("replica paths = %v", paths)
	}
	// Replicas are invisible to the linked-file namespace.
	if dst.IsLinked("/d/f.bin") {
		t.Fatal("replica shows as linked")
	}
	if len(dst.LinkedPaths()) != 0 {
		t.Fatal("replica in LinkedPaths")
	}
	// The replicated history serves.
	e, err := dst.cfg.Archive.Latest("fs1", "/d/f.bin")
	if err != nil || string(e.Content()) != "v0" {
		t.Fatalf("replica archive content: %q, %v", e.Content(), err)
	}
	// Idempotent re-ship (the lost-ack retry) is a clean no-op.
	shipTo(t, src, srcPhys, dst, "/d/f.bin")
	if got := dst.ReplicaVersion("/d/f.bin"); got != 0 {
		t.Fatalf("replica version after re-ship = %d, want 0", got)
	}
}

func TestReplicaLagDetected(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	dst, _ := newShardPeer(t)
	meta, _, mtime, err := src.FileMeta("/d/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := srcPhys.SnapshotFile("/d/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	// Frame v2 arriving at a replica that holds nothing: lag, not apply.
	if err := dst.ApplyReplicaCommit("/d/f.bin", 2, 1, snap, mtime, meta); !errors.Is(err, ErrReplicaLag) {
		t.Fatalf("gapped frame: %v, want ErrReplicaLag", err)
	}
	if dst.ReplicaVersion("/d/f.bin") != -1 {
		t.Fatal("lagged frame advanced the row")
	}
}

func TestReplicaApplyRejectsOwnedPath(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	meta, ver, mtime, _ := src.FileMeta("/d/f.bin")
	snap, err := srcPhys.SnapshotFile("/d/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	// A server must never hold a replica of a path it owns — that frame is a
	// routing bug, not a state to absorb.
	if err := src.ApplyReplicaCommit("/d/f.bin", ver, 1, snap, mtime, meta); err == nil {
		t.Fatal("replica apply over an owned path succeeded")
	}
	// The anti-entropy row upsert refuses too: a replica row on the owner
	// would later be pruned together with the owner's own archive history.
	if err := src.EnsureReplicaRow("/d/f.bin", ver, mtime, meta); !errors.Is(err, ErrReplicaOwned) {
		t.Fatalf("replica row over an owned path: %v, want ErrReplicaOwned", err)
	}
	if len(src.ReplicaPaths()) != 0 {
		t.Fatal("owner lists its own path as a replica")
	}
}

func TestReplicaPromoteServes(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	// Commit an update so the replica carries a multi-version history.
	id := openWrite(t, src, "/d/f.bin", owner)
	srcPhys.WriteFile("/d/f.bin", []byte("v1"))
	if resp := closeFile(t, src, srcPhys, "/d/f.bin", id); !resp.OK {
		t.Fatalf("close: %+v", resp)
	}
	src.WaitArchives()

	dst, dstPhys := newShardPeer(t)
	// Replica histories build version by version, as the shipper delivers.
	recs, err := src.cfg.Archive.ExportDelta("fs1", "/d/f.bin", -1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.cfg.Archive.ImportDelta("fs1", "/d/f.bin", -1, recs, src.cfg.Archive.FetchBlob); err != nil {
		t.Fatal(err)
	}
	meta, ver, mtime, err := src.FileMeta("/d/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.EnsureReplicaRow("/d/f.bin", ver, mtime, meta); err != nil {
		t.Fatal(err)
	}

	if err := dst.PromoteReplica("/d/f.bin"); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if !dst.IsLinked("/d/f.bin") {
		t.Fatal("promoted path not linked")
	}
	if len(dst.ReplicaPaths()) != 0 {
		t.Fatal("replica row survived promotion")
	}
	data, err := dstPhys.ReadFile("/d/f.bin")
	if err != nil || string(data) != "v1" {
		t.Fatalf("promoted content = %q, %v", data, err)
	}
	// At-rest protection and mtime match the owner's (promotion is a shard
	// import, not a fresh link).
	ino, _ := dstPhys.Lookup("/d/f.bin")
	attr, _ := dstPhys.Getattr(ino)
	if attr.Mode&0o222 != 0 {
		t.Fatalf("promoted rfd file writable: %o", attr.Mode)
	}
	// Version numbering continues where the owner stopped.
	id = openWrite(t, dst, "/d/f.bin", owner)
	dstPhys.WriteFile("/d/f.bin", []byte("v2"))
	if resp := closeFile(t, dst, dstPhys, "/d/f.bin", id); !resp.OK {
		t.Fatalf("post-promotion close: %+v", resp)
	}
	dst.WaitArchives()
	vs := dst.cfg.Archive.Versions("fs1", "/d/f.bin")
	if len(vs) != 3 || string(vs[2].Content()) != "v2" {
		t.Fatalf("post-promotion versions = %d", len(vs))
	}
}

func TestReplicaPromoteWithoutReplica(t *testing.T) {
	dst, _ := newShardPeer(t)
	if err := dst.PromoteReplica("/d/ghost.bin"); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("promote without replica: %v, want ErrNoReplica", err)
	}
}

func TestReplicaUnlinkDropsEverything(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	dst, _ := newShardPeer(t)
	shipTo(t, src, srcPhys, dst, "/d/f.bin")

	if err := dst.ApplyReplicaUnlink("/d/f.bin"); err != nil {
		t.Fatalf("replica unlink: %v", err)
	}
	if len(dst.ReplicaPaths()) != 0 {
		t.Fatal("replica row survived unlink")
	}
	if len(dst.cfg.Archive.Versions("fs1", "/d/f.bin")) != 0 {
		t.Fatal("replica history survived unlink")
	}
	// Idempotent — the unlink retry delivers twice.
	if err := dst.ApplyReplicaUnlink("/d/f.bin"); err != nil {
		t.Fatalf("duplicate replica unlink: %v", err)
	}
}

func TestReplicaRead(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	dst, _ := newShardPeer(t)
	shipTo(t, src, srcPhys, dst, "/d/f.bin")
	data, err := dst.ReadReplica("/d/f.bin")
	if err != nil || string(data) != "v0" {
		t.Fatalf("replica read = %q, %v", data, err)
	}
	if _, err := dst.ReadReplica("/d/other.bin"); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("read of missing replica: %v, want ErrNoReplica", err)
	}
}

// fakeReplicator records ships and can fail them — the dlfm-level view of the
// cluster shipper.
type fakeReplicator struct {
	ships   []int64
	unlinks []string
	fail    error
}

func (f *fakeReplicator) ShipCommit(_ context.Context, path string, ver int64, _ uint64, snap *extent.Snapshot, _ int64, _ time.Time, _ ReplicaMeta) error {
	if f.fail != nil {
		return f.fail
	}
	f.ships = append(f.ships, ver)
	return nil
}

func (f *fakeReplicator) ShipUnlink(path string) error {
	f.unlinks = append(f.unlinks, path)
	return f.fail
}

func TestCommitShipsSynchronously(t *testing.T) {
	srv, phys, _ := newServer(t)
	fr := &fakeReplicator{}
	srv.SetReplicator(fr)
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	if len(fr.ships) != 1 || fr.ships[0] != 0 {
		t.Fatalf("link ships = %v, want [0]", fr.ships)
	}
	id := openWrite(t, srv, "/d/f.bin", owner)
	phys.WriteFile("/d/f.bin", []byte("v1"))
	if resp := closeFile(t, srv, phys, "/d/f.bin", id); !resp.OK {
		t.Fatalf("close: %+v", resp)
	}
	if len(fr.ships) != 2 || fr.ships[1] != 1 {
		t.Fatalf("ships after commit = %v, want [0 1]", fr.ships)
	}
}

func TestQuorumFailureRejectsWithoutRollback(t *testing.T) {
	srv, phys, _ := newServer(t)
	linkCommitted(t, srv, "/d/f.bin", "rfd")
	fr := &fakeReplicator{fail: errors.New("replicas unreachable")}
	srv.SetReplicator(fr)

	id := openWrite(t, srv, "/d/f.bin", owner)
	phys.WriteFile("/d/f.bin", []byte("v1"))
	resp := closeFile(t, srv, phys, "/d/f.bin", id)
	// The close is rejected — the writer learns the version is
	// under-replicated...
	if resp.OK {
		t.Fatal("under-replicated close acked")
	}
	if !strings.Contains(resp.Err, "under-replicated") {
		t.Fatalf("close err = %q, want under-replicated", resp.Err)
	}
	// ...but the commit is NOT rolled back: the host transaction already
	// committed, the content stays, and the version archives.
	data, _ := phys.ReadFile("/d/f.bin")
	if string(data) != "v1" {
		t.Fatalf("content rolled back to %q after quorum failure", data)
	}
	srv.WaitArchives()
	vs := srv.cfg.Archive.Versions("fs1", "/d/f.bin")
	if len(vs) != 2 || string(vs[1].Content()) != "v1" {
		t.Fatalf("v1 not archived after quorum failure: %d versions", len(vs))
	}
	// With the replicas back, the next update ships normally.
	fr.fail = nil
	id = openWrite(t, srv, "/d/f.bin", owner)
	phys.WriteFile("/d/f.bin", []byte("v2"))
	if resp := closeFile(t, srv, phys, "/d/f.bin", id); !resp.OK {
		t.Fatalf("recovered close: %+v", resp)
	}
	if len(fr.ships) != 1 || fr.ships[0] != 2 {
		t.Fatalf("recovered ships = %v, want [2]", fr.ships)
	}
}

func TestUnlinkShips(t *testing.T) {
	srv, _, _ := newServer(t)
	fr := &fakeReplicator{}
	srv.SetReplicator(fr)
	linkCommitted(t, srv, "/d/f.bin", "rfd")

	const hostTxn = 91
	if err := srv.UnlinkFile(hostTxn, "/d/f.bin"); err != nil {
		t.Fatal(err)
	}
	srv.PrepareXRM(hostTxn)
	srv.CommitXRM(hostTxn)
	if len(fr.unlinks) != 1 || fr.unlinks[0] != "/d/f.bin" {
		t.Fatalf("unlink ships = %v", fr.unlinks)
	}
}

// TestReplicaEntryPointsOnKilledServer: Kill closes the repository WAL, so a
// replica-side write that starts (or is still running) after the death hits
// a closed log. Each entry point must answer ErrServerDown, not panic the
// calling peer's process.
func TestReplicaEntryPointsOnKilledServer(t *testing.T) {
	src, srcPhys, _ := newServer(t)
	linkCommitted(t, src, "/d/f.bin", "rfd")
	dst, _ := newShardPeer(t)
	shipTo(t, src, srcPhys, dst, "/d/f.bin")
	meta, ver, mtime, err := src.FileMeta("/d/f.bin")
	if err != nil {
		t.Fatal(err)
	}
	dst.Kill()
	if err := dst.ApplyReplicaCommit("/d/f.bin", ver+1, 0, nil, mtime, meta); !errors.Is(err, ErrServerDown) {
		t.Fatalf("apply on a killed replica: err = %v, want ErrServerDown", err)
	}
	if err := dst.EnsureReplicaRow("/d/f.bin", ver+1, mtime, meta); !errors.Is(err, ErrServerDown) {
		t.Fatalf("row upsert on a killed replica: err = %v, want ErrServerDown", err)
	}
	if err := dst.ApplyReplicaUnlink("/d/f.bin"); !errors.Is(err, ErrServerDown) {
		t.Fatalf("unlink on a killed replica: err = %v, want ErrServerDown", err)
	}
}
