package core

// Scale-out namespace: a Cluster runs one DataLinks authority across N file
// servers. A consistent-hash ring places every link path on a member, every
// layer resolves ownership through the router (engine link/unlink, token
// issuing, session opens, metadata write-back), and membership can change
// while commits continue: paths that land on a new owner migrate live behind
// per-path gates — drain, freeze, catch the new owner's archive history up
// the way a lagging replica is caught up (catchUpReplica, the one history
// mover), promote it with the bundle import, evict the old owner — so an
// update is either committed by the old owner before the move or by the new
// owner after it, never lost in between. A new owner that already replicates
// the path further than the old owner archived it (acked versions a
// cold-started member lost) is promoted as it stands, as Failover would.
//
// All members run their DLFM under the cluster's shared authority name, so
// dlfs://<authority>/<path> URLs stay valid across migrations, archive
// histories carry identical keys on any member's store, and tokens (one
// shared HMAC key) validate wherever the path currently lives. Member ids
// (fs1, fs2, ...) exist one layer down: they name the ring points, the
// durable directories, and the metrics.

import (
	"fmt"
	"sync"
	"time"

	"datalinks/internal/datalink"
	"datalinks/internal/dlfm"
	"datalinks/internal/fs"
	"datalinks/internal/metrics"
	"datalinks/internal/obs"
	"datalinks/internal/ring"
)

// ClusterConfig configures a scale-out deployment. The public
// datalinks.ClusterConfig is an alias of this type.
type ClusterConfig struct {
	// Authority is the shared file-server name in DATALINK URLs
	// (dlfs://<authority>/...), valid no matter which member serves a path.
	// Defaults to "cluster".
	Authority string
	// Members configures the initial member stacks; each ServerConfig.Name is
	// the member id on the ring (it never appears in URLs). At least one
	// member is required.
	Members []ServerConfig
	// VirtualNodes per member on the ring (0 = ring.DefaultVirtualNodes, 128).
	VirtualNodes int
	// Clock, TokenKey, TokenTTL and LockTimeout mean what they mean in Config.
	Clock       func() time.Time
	TokenKey    []byte
	TokenTTL    time.Duration
	LockTimeout time.Duration

	// Replicas is the total number of copies of every path's archive history
	// and link row, owner included: the owner plus its Replicas-1 distinct
	// ring successors. 0 or 1 keeps single-copy behavior (no replication).
	Replicas int
	// WriteQuorum is the number of copies (owner included) that must
	// acknowledge a commit before the application's close returns. 0 means
	// all Replicas; values are clamped to [1, Replicas]. A commit that lands
	// fewer acks returns dlfm.ErrReplicationQuorum to the writer but is NOT
	// rolled back — the owner's copy is durable and anti-entropy
	// (FlushReplication) repairs the gap.
	WriteQuorum int
	// ReplicaReads lets ReadFileContent fall back to a surviving replica
	// when the owner is unreachable. Staleness is bounded: a replica can be
	// behind by at most the commits the owner had not quorum-acked. Off by
	// default — reads fail until Failover promotes.
	ReplicaReads bool
	// ProbeInterval enables the health probe: every interval each member is
	// checked, and one found dead gets FailServer bookkeeping (plus, with
	// AutoFailover, a Failover). 0 disables probing.
	ProbeInterval time.Duration
	// AutoFailover makes the health probe run Failover on a dead member.
	AutoFailover bool
}

// Cluster is a running scale-out deployment: one host database and engine,
// N file-server stacks behind a consistent-hash router.
type Cluster struct {
	host

	authority string
	router    *Router

	repl replConfig

	mu      sync.Mutex
	deadCfg map[string]ServerConfig // failed members awaiting AbsorbDead or Failover

	probeStop chan struct{}
	probeWG   sync.WaitGroup

	// migrateHook, when set (tests only), runs before each path migration and
	// can fail it — the crash-mid-absorb injection point.
	migrateHook func(path, src, dst string) error
	// replicaApplyHook, when set (tests only), runs in a ship attempt between
	// the replica's member lookup and its apply — the kill-mid-ship point.
	replicaApplyHook func(replica string)
}

// NewCluster builds and wires a scale-out deployment.
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Authority == "" {
		cfg.Authority = "cluster"
	}
	if len(cfg.Members) == 0 {
		return nil, fmt.Errorf("core: cluster needs at least one member")
	}
	ids := make([]string, 0, len(cfg.Members))
	for _, sc := range cfg.Members {
		if sc.Name == "" {
			return nil, fmt.Errorf("core: cluster member without a name")
		}
		ids = append(ids, sc.Name)
	}
	repl := replConfig{
		n:      cfg.Replicas,
		quorum: cfg.WriteQuorum,
		auto:   cfg.AutoFailover,
		probe:  cfg.ProbeInterval,
	}
	if repl.n < 1 {
		repl.n = 1
	}
	if repl.n > len(ids) {
		repl.n = len(ids)
	}
	if repl.quorum <= 0 || repl.quorum > repl.n {
		repl.quorum = repl.n
	}
	c := &Cluster{
		host:      newHost(cfg.Clock, cfg.TokenKey, cfg.TokenTTL, cfg.LockTimeout),
		authority: cfg.Authority,
		router:    newRouter(cfg.Authority, ring.New(cfg.VirtualNodes, ids...)),
		repl:      repl,
		deadCfg:   make(map[string]ServerConfig),
	}
	c.router.replicas = repl.n
	c.router.replicaReads = cfg.ReplicaReads
	for _, sc := range cfg.Members {
		fsrv, err := c.buildStack(sc, c.authority)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.attachReplicator(fsrv)
		c.router.addMember(fsrv)
	}
	// One engine connection for the whole authority: the router resolves
	// which member processes each link.
	c.Engine.AttachConn(c.authority, c.router, c.key, c.ttl)
	if repl.probe > 0 {
		c.probeStop = make(chan struct{})
		c.probeWG.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// attachReplicator installs the cluster's ship hook on one member's commit
// path (a no-op deployment-wide when Replicas <= 1).
func (c *Cluster) attachReplicator(fsrv *FileServer) {
	if c.repl.n > 1 {
		fsrv.DLFM.SetReplicator(&shardReplicator{c: c, owner: fsrv.Name})
	}
}

// Authority returns the cluster's shared file-server name.
func (c *Cluster) Authority() string { return c.authority }

// Router returns the cluster's path router.
func (c *Cluster) Router() *Router { return c.router }

// Members lists the live member ids, sorted.
func (c *Cluster) Members() []string { return c.router.memberIDs() }

// Member returns one member's stack by id.
func (c *Cluster) Member(id string) (*FileServer, error) { return c.router.member(id) }

// Owner reports which member currently serves a path.
func (c *Cluster) Owner(path string) (string, error) {
	m, err := c.router.owner(path)
	if err != nil {
		return "", err
	}
	return m.Name, nil
}

// URL returns the DATALINK URL for a path under this cluster's authority.
func (c *Cluster) URL(path string) string {
	return datalink.Link{Server: c.authority, Path: path}.URL()
}

// SeedFile creates an (unlinked) file on the member the ring places it on,
// owned by uid — the scale-out analogue of writing a file into one server's
// file system before linking it.
func (c *Cluster) SeedFile(path string, content []byte, uid fs.UID) error {
	m, err := c.router.owner(path)
	if err != nil {
		return err
	}
	return m.SeedFile(path, content, uid)
}

// WaitArchives drains async archiving on every member.
func (c *Cluster) WaitArchives() {
	for _, id := range c.router.memberIDs() {
		if m, err := c.router.member(id); err == nil {
			m.DLFM.WaitArchives()
		}
	}
}

// Close shuts down every member stack.
func (c *Cluster) Close() {
	if c.probeStop != nil {
		close(c.probeStop)
		c.probeWG.Wait()
		c.probeStop = nil
	}
	for _, id := range c.router.memberIDs() {
		if m, err := c.router.member(id); err == nil {
			closeStack(m)
		}
	}
}

// probeLoop is the health probe: it sweeps the member set every interval and
// converts a silently dead member (KillServer, or a crashed stack) into the
// same bookkeeping FailServer does — and, with AutoFailover, straight into a
// Failover, so orphaned paths come back without an operator in the loop.
func (c *Cluster) probeLoop() {
	defer c.probeWG.Done()
	t := time.NewTicker(c.repl.probe)
	defer t.Stop()
	for {
		select {
		case <-c.probeStop:
			return
		case <-t.C:
		}
		for _, id := range c.router.memberIDs() {
			m, err := c.router.member(id)
			if err != nil || m.DLFM.Alive() {
				continue
			}
			// Dead but still routable: record the death.
			c.router.dropMember(id)
			c.mu.Lock()
			c.deadCfg[id] = m.cfg
			c.mu.Unlock()
			c.router.reg.Counter("repl.probe_deaths").Inc()
			if c.repl.auto && c.repl.n > 1 {
				_, _ = c.Failover(id) // best effort; a retry rides the next tick
			}
		}
	}
}

// KillServer kills a member's processes without telling the cluster — the
// silent machine death FailServer's explicit bookkeeping papers over. Only
// the health probe (or a later FailServer call) notices.
func (c *Cluster) KillServer(id string) error {
	m, err := c.router.member(id)
	if err != nil {
		return err
	}
	killStack(m)
	return nil
}

// Metrics aggregates every component registry, including the ring's.
func (c *Cluster) Metrics() map[string]*metrics.Registry {
	out := map[string]*metrics.Registry{
		"engine":              c.Engine.Metrics(),
		"ring:" + c.authority: c.router.reg,
	}
	for _, id := range c.router.memberIDs() {
		if m, err := c.router.member(id); err == nil {
			out["dlfm:"+id] = m.DLFM.Metrics()
			out["dlfs:"+id] = m.DLFS.Metrics()
			out["upcall:"+id] = m.Transport.Metrics()
		}
	}
	return out
}

// Placements counts linked paths per live member (ring-inspection tooling;
// also refreshes the ring.placement.<member> gauges).
func (c *Cluster) Placements() map[string]int {
	out := make(map[string]int)
	for _, id := range c.router.memberIDs() {
		m, err := c.router.member(id)
		if err != nil {
			continue
		}
		n := len(m.DLFM.LinkedPaths())
		out[id] = n
		g := c.router.reg.Counter("ring.placement." + id)
		g.Reset()
		g.Add(int64(n))
	}
	return out
}

// ---- Membership changes (live rebalance) ----

// AddServer grows the cluster by one member: the stack is built, the target
// ring is computed, every path whose ownership moves migrates live to the new
// member, and the ring swaps. Commits against non-moving paths proceed
// throughout; commits against a moving path drain before the move or route to
// the new owner after it.
func (c *Cluster) AddServer(sc ServerConfig) error {
	if sc.Name == "" {
		return fmt.Errorf("core: cluster member without a name")
	}
	c.router.rebalanceMu.Lock()
	defer c.router.rebalanceMu.Unlock()
	if _, err := c.router.member(sc.Name); err == nil {
		return fmt.Errorf("core: member %q already in the cluster", sc.Name)
	}
	fsrv, err := c.buildStack(sc, c.authority)
	if err != nil {
		return err
	}
	c.attachReplicator(fsrv)
	target := c.router.Ring().With(sc.Name)
	c.router.beginRebalance(target, fsrv)
	if err := c.rebalanceTo(target); err != nil {
		c.router.abortRebalance()
		// The joining member keeps any paths that already migrated onto it
		// (their overrides route there), so its stack must stay up — but if
		// nothing moved, beginRebalance's registration is rolled back too.
		if !c.hasOverrideTo(sc.Name) {
			c.router.dropMember(sc.Name)
			closeStack(fsrv)
		}
		return err
	}
	c.router.finishRebalance(target)
	if err := c.FlushReplication(); err != nil {
		return err
	}
	c.Placements()
	return nil
}

// hasOverrideTo reports whether any path currently overrides to member id.
func (c *Cluster) hasOverrideTo(id string) bool {
	c.router.mu.Lock()
	defer c.router.mu.Unlock()
	for _, m := range c.router.overrides {
		if m == id {
			return true
		}
	}
	return false
}

// RemoveServer drains a member gracefully: every path it owns migrates to the
// ring without it, the ring swaps, and the stack shuts down.
func (c *Cluster) RemoveServer(id string) error {
	c.router.rebalanceMu.Lock()
	defer c.router.rebalanceMu.Unlock()
	m, err := c.router.member(id)
	if err != nil {
		return err
	}
	target := c.router.Ring().Without(id)
	if len(target.Members()) == 0 {
		return fmt.Errorf("core: cannot remove the last member %q", id)
	}
	c.router.beginRebalance(target, nil)
	if err := c.rebalanceTo(target); err != nil {
		c.router.abortRebalance()
		return err
	}
	c.router.finishRebalance(target)
	c.router.dropMember(id)
	closeStack(m)
	if err := c.FlushReplication(); err != nil {
		return err
	}
	c.Placements()
	return nil
}

// FailServer simulates a member machine dying: KillServer's kill, then the
// member stops serving. Its durable directories (RepoDir, ArchiveDir)
// survive for AbsorbDead.
func (c *Cluster) FailServer(id string) error {
	m, err := c.router.member(id)
	if err != nil {
		return err
	}
	killStack(m)
	c.router.dropMember(id)
	c.mu.Lock()
	c.deadCfg[id] = m.cfg
	c.mu.Unlock()
	return nil
}

// AbsorbDead recovers a failed member's files under the surviving members:
// the dead member's durable directories are cold-started (repository WAL
// replay rebuilds the link set; linked contents materialize from the archive),
// every recovered path migrates to its owner on the ring without the dead
// member, and the member leaves the ring; with Replicas > 1 the anti-entropy
// pass then repairs the successor sets. Requires the failed member to have
// run with RepoDir set — a purely volatile member leaves nothing to absorb.
func (c *Cluster) AbsorbDead(id string) error {
	c.mu.Lock()
	sc, dead := c.deadCfg[id]
	c.mu.Unlock()
	if !dead {
		return fmt.Errorf("core: member %q has not failed", id)
	}
	if sc.RepoDir == "" {
		return fmt.Errorf("core: member %q has no durable repository to absorb", id)
	}
	c.router.rebalanceMu.Lock()
	defer c.router.rebalanceMu.Unlock()
	// Cold-start the dead member's durable state under a fresh stack. The
	// RAM file system died with the machine; dlfm.Open's recovery rebuilds
	// the link set from the WAL and re-materializes contents from the archive.
	fsrv, err := c.buildStack(sc, c.authority)
	if err != nil {
		return fmt.Errorf("core: absorb %s: cold start: %w", id, err)
	}
	target := c.router.Ring().Without(id)
	if len(target.Members()) == 0 {
		closeStack(fsrv)
		return fmt.Errorf("core: no surviving members to absorb %q into", id)
	}
	// Re-enter the ring long enough to drain: traffic for its paths resumes
	// against the recovered stack while they migrate out one by one.
	c.router.beginRebalance(target, fsrv)
	if err := c.rebalanceTo(target); err != nil {
		// A partial absorb must leave the cluster where a second AbsorbDead
		// can finish the job: paths that migrated keep their overrides (they
		// live on survivors now), the recovered stack closes — its durable
		// dirs hold everything that did not move — and, crucially, it leaves
		// the member table. Without the dropMember here the closed stack
		// stayed routable and the retry found the member "already present".
		c.router.abortRebalance()
		c.router.dropMember(id)
		closeStack(fsrv)
		return err
	}
	c.router.finishRebalance(target)
	c.router.dropMember(id)
	closeStack(fsrv)
	c.mu.Lock()
	delete(c.deadCfg, id)
	c.mu.Unlock()
	if err := c.FlushReplication(); err != nil {
		return err
	}
	c.Placements()
	return nil
}

// rebalanceTo migrates every path whose owner differs between the current
// placement and the target ring. Caller holds rebalanceMu with the target
// installed as pending.
func (c *Cluster) rebalanceTo(target *ring.Ring) error {
	start := time.Now()
	for _, srcID := range c.router.memberIDs() {
		src, err := c.router.member(srcID)
		if err != nil {
			continue
		}
		for _, path := range src.DLFM.LinkedPaths() {
			dstID := target.Lookup(path)
			if dstID == srcID {
				continue
			}
			dst, err := c.router.member(dstID)
			if err != nil {
				return fmt.Errorf("core: rebalance: target member %q: %w", dstID, err)
			}
			if err := c.migratePath(src, dst, path); err != nil {
				return fmt.Errorf("core: migrate %s %s→%s: %w", path, srcID, dstID, err)
			}
		}
	}
	c.router.reg.Histogram("ring.rebalance").Observe(time.Since(start))
	return nil
}

// migratePath moves one linked path between members: gate new traffic, drain
// and freeze the source, catch the destination's archive history up (chunks
// dedup by hash; a replica receives only what it lacks), promote it with the
// repository bundle — or, when the destination's replica is ahead of the
// source, promote that replica — point the router at the destination, evict
// the source. On any failure the source remains the owner.
func (c *Cluster) migratePath(src, dst *FileServer, path string) error {
	if c.migrateHook != nil {
		if err := c.migrateHook(path, src.Name, dst.Name); err != nil {
			return err
		}
	}
	tr := src.Obs.Start("migrate")
	root := tr.Root()
	root.SetAttr("path", path)
	root.SetAttr("src", src.Name)
	root.SetAttr("dst", dst.Name)
	err := c.migratePathTraced(src, dst, path, root)
	if err != nil {
		root.SetAttr("error", err.Error())
	}
	tr.Finish()
	return err
}

func (c *Cluster) migratePathTraced(src, dst *FileServer, path string, sp *obs.Span) error {
	gate := c.router.gate(path)
	defer c.router.ungate(path, gate)

	// Drain + freeze. A long-running writer can exceed one OpenWait; retry a
	// few times before giving up on the whole rebalance.
	drain := sp.Child("drain")
	var b *dlfm.FileBundle
	var err error
	for attempt := 0; ; attempt++ {
		b, err = src.DLFM.BeginExport(path)
		if err == nil || attempt >= 2 {
			drain.SetAttr("attempts", int64(attempt+1))
			break
		}
	}
	drain.End()
	if err != nil {
		return err
	}
	defer b.Release()

	// Hand over under the destination's replica lock, as a failover
	// promotion does. A destination replica that is ahead of the source
	// holds versions a write quorum acked and the source lost before
	// archiving them (a cold-started member's in-flight archive jobs die
	// with it): that replica is promoted as it stands, as Failover would.
	// Otherwise the destination's history is caught up exactly as a lagging
	// replica's is — a replica receives only what it lacks — and the bundle
	// promotes it.
	handover := sp.Child("handover")
	unlock := dst.DLFM.LockReplica(path)
	wasReplica := dst.DLFM.ReplicaVersion(path) >= 0
	if wasReplica && c.lastArchived(dst, path) > c.lastArchived(src, path) {
		err = dst.DLFM.PromoteReplica(path)
	} else if _, err = c.catchUpReplica(src, dst, path); err == nil {
		err = dst.DLFM.ImportBundle(b)
	}
	// Cleanup is best effort: the caller sees the migration's error, and
	// anti-entropy repairs whatever a failed cleanup leaves behind.
	switch {
	case err == nil:
	case !wasReplica:
		// Leave the destination as it was.
		_ = dst.Archive.Drop(c.authority, path)
	case c.lastArchived(dst, path) < 0:
		// Catch-up dropped a diverged replica history and could not refill
		// it: retire the row too, so no failover picks a replica with
		// nothing to promote. Anti-entropy re-creates it.
		_ = dst.DLFM.DropReplica(path)
	default:
		// The replica keeps its row and its history, caught up or as it
		// was; anti-entropy owns them as before.
	}
	unlock()
	handover.End()
	if err != nil {
		_ = src.DLFM.EndExport(path, false)
		return err
	}
	// The destination owns the path from here: stragglers parked on the
	// source's freeze fail over via the session retry, new traffic routes by
	// the override until the ring swap makes it implicit.
	c.router.setOverride(path, dst.Name)
	if err := src.DLFM.EndExport(path, true); err != nil {
		return err
	}
	if err := src.Archive.Drop(c.authority, path); err != nil {
		return err
	}
	c.router.reg.Counter("ring.moves").Inc()
	return nil
}
