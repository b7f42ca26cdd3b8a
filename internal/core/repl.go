package core

// Shard replication and failover: with ClusterConfig.Replicas = N > 1 every
// linked path has N copies — the ring owner plus its N-1 distinct ring
// successors (ring.SuccessorsFor). The owner ships each committed version's
// delta manifest and missing chunks to the successors synchronously at the
// 2PC commit barrier (dlfm installs the shardReplicator via SetReplicator);
// acks gate on a write quorum, and every ship — commit, link or unlink — runs
// one per-replica retry loop (shipTo) and one quorum verdict (shipQuorum). A
// lagging replica catches up in catchUpReplica over
// archive.ExportDelta/ImportDelta — O(changed chunks), never a full copy
// unless the histories diverged. catchUpReplica is the only code that moves a
// history between members: live migration (cluster.go) runs it too, so a
// membership change catches the new owner up like a replica and promotes it.
//
// On member death, Failover promotes the first live successor of every
// orphaned path: the successor already holds the full history and the
// promotion identity, so the path serves again after a gate + materialize —
// no AbsorbDead, no cold start, no data movement. The ring swaps to the
// survivor set and FlushReplication (the anti-entropy pass) repairs
// redundancy against the new successor lists.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/dlfm"
	"datalinks/internal/extent"
	"datalinks/internal/metrics"
	"datalinks/internal/obs"
	"datalinks/internal/retry"
	"datalinks/internal/upcall"
)

// errMemberDown marks a ship attempt that could not reach its replica
// because the member is not routable or is dead — transient during a
// failover window.
var errMemberDown = errors.New("core: replica member down")

// onReplica runs one replica-side step on path (apply, catch-up import, row
// upsert, drop) against dst under dst's per-path replica lock. Members share
// this process, so a replica killed before or during the step must answer
// like a dead machine: its failure joins the errMemberDown path instead of
// surfacing as a repository or archive error.
func onReplica(dst *FileServer, path string, step func() error) error {
	unlock := dst.DLFM.LockReplica(path)
	err := step()
	unlock()
	if err != nil && (errors.Is(err, dlfm.ErrServerDown) || !dst.DLFM.Alive()) {
		return fmt.Errorf("%w: %s: %v", errMemberDown, dst.Name, err)
	}
	return err
}

// replConfig is the cluster's resolved replication policy.
type replConfig struct {
	n      int           // total copies per path, owner included (<=1: off)
	quorum int           // acks (owner included) required per commit
	auto   bool          // run Failover automatically when the probe sees a death
	probe  time.Duration // health-probe interval (0: no probe)

	// policy and chaos are test hooks, set on a fresh cluster before its
	// first link; production leaves both zero. policy shapes per-replica ship
	// retry (zero value = retry defaults). chaos injects transport faults into
	// the replication stream: every ship attempt consults Chaos.Strike (drops,
	// resets, delays, partitions), the fault model the upcall wire runs under.
	policy retry.Policy
	chaos  *upcall.Chaos
}

// classifyShip decides whether a failed ship attempt is worth repeating. A
// replica that refuses the frame because it owns the path will refuse every
// retry too; everything else — a member down mid-failover, a dropped or
// reset frame, a lagging replica — may clear within the retry budget.
func classifyShip(err error) retry.Class {
	if errors.Is(err, dlfm.ErrReplicaOwned) {
		return retry.Permanent
	}
	return retry.Retryable
}

// shardReplicator is the dlfm.Replicator one member's commit path calls. It
// is bound to its owner id; everything else resolves through the cluster at
// ship time, so ring swaps and failovers need no rewiring.
type shardReplicator struct {
	c     *Cluster
	owner string
}

var _ dlfm.Replicator = (*shardReplicator)(nil)

func (sr *shardReplicator) ShipCommit(ctx context.Context, path string, ver int64, stateID uint64, snap *extent.Snapshot, size int64, mtime time.Time, meta dlfm.ReplicaMeta) error {
	return sr.c.shipVersion(ctx, sr.owner, path, ver, stateID, snap, mtime, meta)
}

func (sr *shardReplicator) ShipUnlink(path string) error {
	return sr.c.shipUnlink(sr.owner, path)
}

// replicaTargets returns the members that should hold replicas of path for
// the given owner: the path's ring successors, owner excluded, at most n-1.
func (c *Cluster) replicaTargets(owner, path string) []string {
	if c.repl.n <= 1 {
		return nil
	}
	succ := c.router.successorsFor(path, c.repl.n+1)
	out := make([]string, 0, c.repl.n-1)
	for _, id := range succ {
		if id == owner {
			continue
		}
		out = append(out, id)
		if len(out) == c.repl.n-1 {
			break
		}
	}
	return out
}

// memberRegistry returns a live member's metrics registry, or nil.
func (c *Cluster) memberRegistry(id string) *metrics.Registry {
	m, err := c.router.member(id)
	if err != nil {
		return nil
	}
	return m.DLFM.Metrics()
}

// shipVersion pushes one committed version to the path's replica set and
// gates on the write quorum. Called synchronously from the owner's commit
// path (and from link, with the initial version), so a nil return means a
// quorum of copies carries the version before the application's close
// returns. A replica that lags is caught up through the archive delta path
// before the frame is re-applied.
func (c *Cluster) shipVersion(ctx context.Context, owner, path string, ver int64, stateID uint64, snap *extent.Snapshot, mtime time.Time, meta dlfm.ReplicaMeta) error {
	return c.shipQuorum(ctx, owner, path, ver, func(ctx context.Context, id string, retried *bool) error {
		return c.shipToReplica(ctx, owner, id, path, ver, stateID, snap, mtime, meta, retried)
	})
}

// shipUnlink propagates an unlink to the replica set so a later failover
// cannot resurrect the path. Same quorum policy as commits.
func (c *Cluster) shipUnlink(owner, path string) error {
	return c.shipQuorum(context.Background(), owner, path, -1, func(ctx context.Context, id string, retried *bool) error {
		return c.shipTo(ctx, id, path, retried, func(dst *FileServer) error {
			return dst.DLFM.ApplyReplicaUnlink(path)
		})
	})
}

// shipQuorum runs one ship to every replica target of path and returns the
// quorum verdict: nil once the owner's copy plus the acking replicas reach
// the write quorum. A short quorum wraps the first replica's error, or
// errMemberDown when every reachable replica acked but too few exist. ver is
// the shipped version, or -1 for an unlink. Every ship round lands in the
// owner's repl.ship histogram.
func (c *Cluster) shipQuorum(ctx context.Context, owner, path string, ver int64, ship func(ctx context.Context, id string, retried *bool) error) error {
	cfg := c.repl
	targets := c.replicaTargets(owner, path)
	if len(targets) == 0 && cfg.quorum <= 1 {
		return nil
	}
	start := time.Now()
	parent := obs.SpanFrom(ctx)
	acks := 1 // the owner's own durable copy
	retried := false
	var firstErr error
	for _, id := range targets {
		sp := parent.Child("repl.ship")
		sp.SetAttr("replica", id)
		sp.SetAttr("version", ver)
		if err := ship(ctx, id, &retried); err != nil {
			sp.SetAttr("error", err.Error())
			if firstErr == nil {
				firstErr = fmt.Errorf("replica %s: %w", id, err)
			}
		} else {
			acks++
			ack := sp.Child("repl.ack")
			ack.SetAttr("replica", id)
			ack.End()
		}
		sp.End()
	}
	if reg := c.memberRegistry(owner); reg != nil {
		reg.Histogram("repl.ship").Observe(time.Since(start))
		if retried {
			reg.Counter("repl.quorum_waits").Inc()
		}
	}
	if acks < cfg.quorum {
		err := firstErr
		if err == nil {
			err = errMemberDown
		}
		what := "unlink"
		if ver >= 0 {
			what = fmt.Sprintf("v%d", ver)
		}
		return fmt.Errorf("core: quorum %d/%d for %s %s: %w", acks, cfg.quorum, path, what, err)
	}
	return nil
}

// shipToReplica delivers one committed version to one replica, catching a
// lagging replica up through the archive delta path before re-applying.
func (c *Cluster) shipToReplica(ctx context.Context, owner, id, path string, ver int64, stateID uint64, snap *extent.Snapshot, mtime time.Time, meta dlfm.ReplicaMeta, retried *bool) error {
	return c.shipTo(ctx, id, path, retried, func(dst *FileServer) error {
		src, err := c.router.member(owner)
		if err != nil {
			return fmt.Errorf("%w: %v", errMemberDown, err)
		}
		err = dst.DLFM.ApplyReplicaCommit(path, ver, stateID, snap, mtime, meta)
		if errors.Is(err, dlfm.ErrReplicaLag) {
			n, cerr := c.catchUpReplica(src, dst, path)
			src.DLFM.Metrics().Counter("repl.lag_versions").Add(int64(n))
			if cerr != nil {
				return cerr
			}
			err = dst.DLFM.ApplyReplicaCommit(path, ver, stateID, snap, mtime, meta)
		}
		return err
	})
}

// shipTo runs one replica-side step against replica id with retry/backoff:
// the per-replica loop every ship shares. The chaos hook strikes each
// attempt (a dropped or reset frame surfaces as the same ErrConnLost class
// the upcall wire produces), an unroutable replica is errMemberDown, the
// step runs under the replica's per-path lock, and classifyShip decides
// whether a failure is worth repeating. A retry sets *retried.
func (c *Cluster) shipTo(ctx context.Context, id, path string, retried *bool, step func(dst *FileServer) error) error {
	p := c.repl.policy
	prevOnRetry := p.OnRetry
	p.OnRetry = func(attempt int, err error, delay time.Duration) {
		*retried = true
		if prevOnRetry != nil {
			prevOnRetry(attempt, err, delay)
		}
	}
	return retry.Do(ctx, p, classifyShip, func(ctx context.Context) error {
		if ch := c.repl.chaos; ch != nil {
			if err := ch.Strike(); err != nil {
				return err
			}
		}
		dst, err := c.router.member(id)
		if err != nil {
			return fmt.Errorf("%w: %v", errMemberDown, err)
		}
		if c.replicaApplyHook != nil {
			c.replicaApplyHook(id)
		}
		return onReplica(dst, path, func() error { return step(dst) })
	})
}

// catchUpReplica is the one history mover between members: it brings dst's
// archive history for path up to src's and returns how many versions moved.
// A delta of the missing versions when the histories share a prefix
// (O(changed chunks)); a full resync — drop, then the same transfer from
// base -1 — when they diverged (restore/truncate) or dst holds nothing yet.
// Replica ships, anti-entropy and migration all run it; the caller holds
// dst's per-path replica lock.
func (c *Cluster) catchUpReplica(src, dst *FileServer, path string) (int, error) {
	base := c.lastArchived(dst, path)
	for {
		recs, err := src.Archive.ExportDelta(c.authority, path, base)
		var st archive.ImportStats
		if err == nil && len(recs) > 0 {
			st, err = dst.Archive.ImportDelta(c.authority, path, base, recs, src.Archive.FetchBlob)
		}
		if errors.Is(err, archive.ErrChainGap) && base >= 0 {
			// The histories diverged: resync from scratch.
			if err := dst.Archive.Drop(c.authority, path); err != nil {
				return 0, err
			}
			base = -1
			continue
		}
		if errors.Is(err, archive.ErrStale) {
			// Another shipper landed the history first — that is the goal.
			err = nil
		}
		return st.Versions, err
	}
}

// lastArchived is the newest version m's archive holds for path (-1: none).
func (c *Cluster) lastArchived(m *FileServer, path string) int64 {
	vs := m.Archive.Versions(c.authority, path)
	if len(vs) == 0 {
		return -1
	}
	return int64(vs[len(vs)-1].Version)
}

// ReplicaSet reports the members that should hold copies of path: the
// current owner first, then its ring successors in promotion order.
func (c *Cluster) ReplicaSet(path string) []string {
	owner := c.router.placementID(path)
	return append([]string{owner}, c.replicaTargets(owner, path)...)
}

// FailoverReport describes what one Failover did.
type FailoverReport struct {
	Promoted []string      // paths promoted onto survivors
	Elapsed  time.Duration // gate-to-serving wall time
}

// Failover recovers a failed member's paths from their replicas: every
// orphaned path is promoted on its first live ring successor — which, by the
// successor-list property, is exactly the member the ring without the dead
// node assigns it to — then the ring swaps and the anti-entropy pass repairs
// redundancy. No AbsorbDead, no cold start from the dead member's disks: the
// survivors already hold everything. Requires Replicas > 1 and a member that
// FailServer (or the health probe) marked dead.
func (c *Cluster) Failover(id string) (*FailoverReport, error) {
	if c.repl.n <= 1 {
		return nil, fmt.Errorf("core: failover of %q needs Replicas > 1", id)
	}
	c.mu.Lock()
	_, dead := c.deadCfg[id]
	c.mu.Unlock()
	if !dead {
		return nil, fmt.Errorf("core: member %q has not failed", id)
	}
	c.router.rebalanceMu.Lock()
	defer c.router.rebalanceMu.Unlock()
	start := time.Now()
	cur := c.router.Ring()
	if !cur.Has(id) {
		return nil, fmt.Errorf("core: member %q is not on the ring", id)
	}
	target := cur.Without(id)
	if len(target.Members()) == 0 {
		return nil, fmt.Errorf("core: no surviving members to fail %q over to", id)
	}
	rep := &FailoverReport{}
	promoted := make(map[string]bool)
	// Pass 1: each survivor promotes the orphaned paths the survivor ring
	// assigns to it — the designated first live successor.
	for _, sid := range c.router.memberIDs() {
		m, err := c.router.member(sid)
		if err != nil {
			continue
		}
		for _, p := range m.DLFM.ReplicaPaths() {
			if c.router.placementID(p) != id || target.Lookup(p) != sid {
				continue
			}
			if err := c.promotePath(m, p); err != nil {
				return rep, fmt.Errorf("core: failover %s: promote %s on %s: %w", id, p, sid, err)
			}
			promoted[p] = true
			rep.Promoted = append(rep.Promoted, p)
		}
	}
	// Pass 2: orphaned paths whose designated successor holds no replica
	// (it joined after the last ship, or lagged) promote wherever one
	// survives — the override keeps routing correct after the ring swap.
	for _, sid := range c.router.memberIDs() {
		m, err := c.router.member(sid)
		if err != nil {
			continue
		}
		for _, p := range m.DLFM.ReplicaPaths() {
			if promoted[p] || c.router.placementID(p) != id {
				continue
			}
			if err := c.promotePath(m, p); err != nil {
				return rep, fmt.Errorf("core: failover %s: promote %s on %s: %w", id, p, sid, err)
			}
			promoted[p] = true
			rep.Promoted = append(rep.Promoted, p)
		}
	}
	c.router.adoptRing(target)
	c.mu.Lock()
	delete(c.deadCfg, id) // failover supersedes AbsorbDead
	c.mu.Unlock()
	c.router.reg.Counter("repl.failovers").Inc()
	rep.Elapsed = time.Since(start)
	// Redundancy repair off the critical path measurement: the new ring
	// implies new successor sets for every promoted (and surviving) path.
	if err := c.FlushReplication(); err != nil {
		return rep, err
	}
	c.Placements()
	return rep, nil
}

// promotePath gates a path, promotes the local replica, and points the
// router at the new owner.
func (c *Cluster) promotePath(m *FileServer, path string) error {
	gate := c.router.gate(path)
	defer c.router.ungate(path, gate)
	defer m.DLFM.LockReplica(path)()
	if err := m.DLFM.PromoteReplica(path); err != nil {
		return err
	}
	c.router.setOverride(path, m.Name)
	return nil
}

// FlushReplication is the anti-entropy pass: every owner pushes each linked
// path's history to its current ring successors until the replicas match,
// and every member drops replicas it should no longer hold. This is also the
// quiesce barrier E23 relies on — a quorum-failed commit leaves replica gaps
// that no later ship heals on its own, and a ring swap strands replicas on
// retired successors.
func (c *Cluster) FlushReplication() error {
	if c.repl.n <= 1 {
		return nil
	}
	var firstErr error
	// Push: owners repair their successor sets.
	for _, sid := range c.router.memberIDs() {
		m, err := c.router.member(sid)
		if err != nil {
			continue
		}
		for _, p := range m.DLFM.LinkedPaths() {
			if c.router.placementID(p) != sid {
				continue
			}
			srcLast := c.lastArchived(m, p)
			if srcLast < 0 {
				continue // mode without archive history: nothing to replicate
			}
			meta, _, mtime, err := m.DLFM.FileMeta(p)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			for _, tid := range c.replicaTargets(sid, p) {
				dst, err := c.router.member(tid)
				if err != nil {
					continue
				}
				if err := c.syncReplica(m, dst, p, srcLast, mtime, meta); err != nil && firstErr == nil {
					firstErr = fmt.Errorf("core: flush %s %s→%s: %w", p, sid, tid, err)
				}
			}
		}
	}
	// Prune: a replica stays only while its owner is reachable, still links
	// the path, and still lists this member as a successor. An unreachable
	// owner freezes pruning — a failover may be about to need the replica.
	for _, sid := range c.router.memberIDs() {
		m, err := c.router.member(sid)
		if err != nil {
			continue
		}
		for _, p := range m.DLFM.ReplicaPaths() {
			ownerID := c.router.placementID(p)
			keep := false
			if om, err := c.router.member(ownerID); err != nil {
				keep = true
			} else if ownerID != sid && om.DLFM.IsLinked(p) {
				for _, tid := range c.replicaTargets(ownerID, p) {
					if tid == sid {
						keep = true
						break
					}
				}
			}
			if !keep {
				if err := onReplica(m, p, func() error { return m.DLFM.DropReplica(p) }); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	}
	return firstErr
}

// syncReplica makes dst's copy of path equal src's: archive history first
// (delta when possible), then the replica row. A replica that ran ahead of a
// restored owner resyncs from scratch.
func (c *Cluster) syncReplica(src, dst *FileServer, path string, srcLast int64, mtime time.Time, meta dlfm.ReplicaMeta) error {
	return onReplica(dst, path, func() error {
		have := c.lastArchived(dst, path)
		if have > srcLast {
			if err := dst.Archive.Drop(c.authority, path); err != nil {
				return err
			}
			have = -1
		}
		if have < srcLast {
			n, err := c.catchUpReplica(src, dst, path)
			src.DLFM.Metrics().Counter("repl.lag_versions").Add(int64(n))
			if err != nil {
				return err
			}
		}
		return dst.DLFM.EnsureReplicaRow(path, srcLast, mtime, meta)
	})
}
