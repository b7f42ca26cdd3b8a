package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/datalink"
	"datalinks/internal/dlfm"
	"datalinks/internal/retry"
	"datalinks/internal/upcall"
)

// newReplCluster builds an n-member deployment with replication on.
func newReplCluster(t *testing.T, n int, mut func(*ClusterConfig)) *Cluster {
	t.Helper()
	members := make([]ServerConfig, n)
	for i := range members {
		members[i] = ServerConfig{Name: fmt.Sprintf("fs%d", i+1), OpenWait: 300 * time.Millisecond}
	}
	cfg := ClusterConfig{
		Members:     members,
		LockTimeout: 500 * time.Millisecond,
		Replicas:    2,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := NewCluster(cfg)
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	t.Cleanup(c.Close)
	c.DB.MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	return c
}

// memberDigest hashes one member's full version history of a path — owner and
// replica digests must be byte-identical after quiesce.
func memberDigest(t *testing.T, c *Cluster, id, path string) string {
	t.Helper()
	m, err := c.Member(id)
	if err != nil {
		t.Fatalf("member %s: %v", id, err)
	}
	h := sha256.New()
	for _, e := range m.Archive.Versions(c.Authority(), path) {
		fmt.Fprintf(h, "%d:%d:", e.Version, len(e.Content()))
		h.Write(e.Content())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// assertReplicasConverged checks every path's replica set holds an identical
// history to its owner.
func assertReplicasConverged(t *testing.T, c *Cluster, paths []string) {
	t.Helper()
	for _, p := range paths {
		set := c.ReplicaSet(p)
		owner := set[0]
		want := memberDigest(t, c, owner, p)
		for _, id := range set[1:] {
			if got := memberDigest(t, c, id, p); got != want {
				t.Fatalf("%s: replica %s digest %s != owner %s digest %s", p, id, got[:12], owner, want[:12])
			}
		}
	}
}

// commitUpdate writes one new version through the full session protocol.
func commitUpdate(t *testing.T, c *Cluster, docID int, content string) error {
	t.Helper()
	sess := c.NewSession(alice)
	wf, err := sess.OpenWrite(docURL(t, c, "DLURLCOMPLETEWRITE", docID))
	if err != nil {
		return err
	}
	if err := wf.WriteAll([]byte(content)); err != nil {
		wf.Close()
		return err
	}
	return wf.Close()
}

func TestReplicationShipsOnCommit(t *testing.T) {
	c := newReplCluster(t, 3, nil)
	paths := clusterPaths(8)
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
		if err := commitUpdate(t, c, i, "v1 of "+p); err != nil {
			t.Fatalf("commit %s: %v", p, err)
		}
	}
	c.WaitArchives()
	for _, p := range paths {
		set := c.ReplicaSet(p)
		if len(set) != 2 || set[0] == set[1] {
			t.Fatalf("%s replica set %v, want 2 distinct members", p, set)
		}
		owner, _ := c.Owner(p)
		if set[0] != owner {
			t.Fatalf("%s replica set %v does not lead with owner %s", p, set, owner)
		}
		m, _ := c.Member(set[1])
		// The replica acked both the link (v0) and the commit (v1)
		// synchronously — no anti-entropy pass has run.
		if got := m.DLFM.ReplicaVersion(p); got != 1 {
			t.Fatalf("%s replica on %s at version %d, want 1", p, set[1], got)
		}
	}
	assertReplicasConverged(t, c, paths)
}

func TestReplicationRetriesThroughChaos(t *testing.T) {
	chaos := &upcall.Chaos{Seed: 42, DropProb: 0.2, ResetProb: 0.1}
	c := newReplCluster(t, 3, func(cfg *ClusterConfig) { cfg.WriteQuorum = 2 })
	c.repl.chaos = chaos
	c.repl.policy = retry.Policy{MaxAttempts: 10, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	paths := clusterPaths(6)
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
	}
	// Every commit must reach its quorum through dropped and reset frames —
	// the retry discipline absorbs the chaos.
	for round := 1; round <= 4; round++ {
		for i, p := range paths {
			if err := commitUpdate(t, c, i, fmt.Sprintf("v%d of %s", round, p)); err != nil {
				t.Fatalf("commit round %d %s: %v", round, p, err)
			}
		}
	}
	st := chaos.Stats()
	if st.Drops == 0 && st.Resets == 0 {
		t.Fatal("chaos injected nothing — the test exercised no faults")
	}
	chaos.Enable(false)
	c.WaitArchives()
	if err := c.FlushReplication(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	assertReplicasConverged(t, c, paths)
}

func TestPartitionFailsQuorumWithoutRollback(t *testing.T) {
	chaos := &upcall.Chaos{Seed: 7}
	c := newReplCluster(t, 3, func(cfg *ClusterConfig) { cfg.WriteQuorum = 2 })
	c.repl.chaos = chaos
	c.repl.policy = retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	p := clusterPaths(1)[0]
	linkDoc(t, c, 0, p, "v0 of "+p)
	c.WaitArchives()

	chaos.Partition(true)
	err := commitUpdate(t, c, 0, "v1 of "+p)
	if err == nil {
		t.Fatal("commit reached quorum across a full partition")
	}
	if !strings.Contains(err.Error(), "under-replicated") {
		t.Fatalf("partitioned commit error = %v, want under-replicated", err)
	}
	// The owner committed and archived the version — the writer's rejection
	// reports under-replication, not loss.
	c.WaitArchives()
	owner, _ := c.Owner(p)
	m, _ := c.Member(owner)
	vs := m.Archive.Versions(c.Authority(), p)
	if len(vs) != 2 || string(vs[1].Content()) != "v1 of "+p {
		t.Fatalf("owner history after partitioned commit: %d versions", len(vs))
	}
	// Heal: anti-entropy repairs the replica gap no later commit would fill.
	chaos.Partition(false)
	chaos.Enable(false)
	if err := c.FlushReplication(); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	assertReplicasConverged(t, c, []string{p})
}

func TestFailoverPromotesReplicas(t *testing.T) {
	c := newReplCluster(t, 3, nil)
	paths := clusterPaths(12)
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
		if err := commitUpdate(t, c, i, "v1 of "+p); err != nil {
			t.Fatalf("commit %s: %v", p, err)
		}
	}
	c.WaitArchives()
	victim := ""
	for _, p := range paths {
		owner, _ := c.Owner(p)
		victim = owner
		break
	}
	victimPaths := map[string]bool{}
	secondSucc := map[string]string{}
	for _, p := range paths {
		if owner, _ := c.Owner(p); owner == victim {
			victimPaths[p] = true
			secondSucc[p] = c.ReplicaSet(p)[1]
		}
	}
	if len(victimPaths) == 0 {
		t.Skipf("hash placed no test path on %s", victim)
	}

	if err := c.FailServer(victim); err != nil {
		t.Fatalf("fail: %v", err)
	}
	rep, err := c.Failover(victim)
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	promoted := map[string]bool{}
	for _, p := range rep.Promoted {
		promoted[p] = true
	}
	for p := range victimPaths {
		if !promoted[p] {
			t.Fatalf("%s (owned by dead %s) was not promoted; report %v", p, victim, rep.Promoted)
		}
	}
	// Failover needs no AbsorbDead: the dead member's durable state was never
	// touched (these members have none), yet every path serves its last
	// acked version — from the promoted replica, on the ring successor.
	sess := c.NewSession(alice)
	for i, p := range paths {
		owner, err := c.Owner(p)
		if err != nil {
			t.Fatalf("%s unowned after failover: %v", p, err)
		}
		if owner == victim {
			t.Fatalf("%s still routed to dead %s", p, victim)
		}
		if victimPaths[p] && owner != secondSucc[p] {
			t.Fatalf("%s promoted on %s, want second successor %s", p, owner, secondSucc[p])
		}
		f, err := sess.OpenRead(docURL(t, c, "DLURLCOMPLETE", i))
		if err != nil {
			t.Fatalf("read %s after failover: %v", p, err)
		}
		data, _ := f.ReadAll()
		f.Close()
		if string(data) != "v1 of "+p {
			t.Fatalf("%s after failover = %q, want committed v1", p, data)
		}
	}
	// Writes continue, version numbering unbroken, and the new owner ships
	// to the new successor set.
	for i, p := range paths {
		if err := commitUpdate(t, c, i, "v2 of "+p); err != nil {
			t.Fatalf("post-failover commit %s: %v", p, err)
		}
	}
	c.WaitArchives()
	if err := c.FlushReplication(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for _, p := range paths {
		owner, _ := c.Owner(p)
		m, _ := c.Member(owner)
		vs := m.Archive.Versions(c.Authority(), p)
		if len(vs) != 3 || string(vs[2].Content()) != "v2 of "+p {
			t.Fatalf("%s history after failover: %d versions", p, len(vs))
		}
	}
	assertReplicasConverged(t, c, paths)
	if c.router.reg.Counter("repl.failovers").Value() != 1 {
		t.Fatal("repl.failovers counter not incremented")
	}
}

func TestPartitionDuringFailover(t *testing.T) {
	chaos := &upcall.Chaos{Seed: 11}
	c := newReplCluster(t, 3, func(cfg *ClusterConfig) { cfg.WriteQuorum = 1 })
	c.repl.chaos = chaos
	c.repl.policy = retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	paths := clusterPaths(8)
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
		if err := commitUpdate(t, c, i, "v1 of "+p); err != nil {
			t.Fatalf("commit %s: %v", p, err)
		}
	}
	c.WaitArchives()
	victim := c.Members()[0]
	if err := c.FailServer(victim); err != nil {
		t.Fatal(err)
	}
	// The replication stream partitions while the failover runs: promotion is
	// local (replica + row are already on the successor), so paths still come
	// back — only the redundancy repair is deferred.
	chaos.Partition(true)
	if _, err := c.Failover(victim); err != nil {
		t.Logf("failover under partition (repair deferred): %v", err)
	}
	sess := c.NewSession(alice)
	for i, p := range paths {
		owner, err := c.Owner(p)
		if err != nil || owner == victim {
			t.Fatalf("%s not served after failover under partition: owner=%s err=%v", p, owner, err)
		}
		f, err := sess.OpenRead(docURL(t, c, "DLURLCOMPLETE", i))
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		data, _ := f.ReadAll()
		f.Close()
		if string(data) != "v1 of "+p {
			t.Fatalf("%s = %q after failover under partition", p, data)
		}
	}
	chaos.Partition(false)
	chaos.Enable(false)
	if err := c.FlushReplication(); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	assertReplicasConverged(t, c, paths)
}

func TestReplicaReadsWhenOwnerDown(t *testing.T) {
	c := newReplCluster(t, 3, func(cfg *ClusterConfig) {
		cfg.WriteQuorum = 1
		cfg.ReplicaReads = true
	})
	paths := clusterPaths(6)
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
		if err := commitUpdate(t, c, i, "v1 of "+p); err != nil {
			t.Fatalf("commit %s: %v", p, err)
		}
	}
	c.WaitArchives()
	p := paths[0]
	owner, _ := c.Owner(p)
	if err := c.FailServer(owner); err != nil {
		t.Fatal(err)
	}
	// No failover has run — the owner is simply dark. The read falls back to
	// the replica, stale-bounded by the quorum-acked version.
	data, err := c.router.ReadFileContent(p)
	if err != nil {
		t.Fatalf("replica read with owner down: %v", err)
	}
	if string(data) != "v1 of "+p {
		t.Fatalf("replica read = %q, want v1", data)
	}
	if c.router.reg.Counter("repl.stale_reads").Value() == 0 {
		t.Fatal("repl.stale_reads not counted")
	}
}

// TestAbsorbDeadCrashMidAbsorb kills the absorbing process partway through
// (the migrate hook fails after two paths) and asserts a second AbsorbDead
// converges: every path lands exactly once, with its full history, and the
// half-recovered stack is neither routable nor double-imported.
func TestAbsorbDeadCrashMidAbsorb(t *testing.T) {
	members := []ServerConfig{
		{Name: "fs1", OpenWait: 300 * time.Millisecond,
			RepoDir: t.TempDir(), ArchiveDir: t.TempDir()},
		{Name: "fs2", OpenWait: 300 * time.Millisecond,
			RepoDir: t.TempDir(), ArchiveDir: t.TempDir()},
	}
	c, err := NewCluster(ClusterConfig{Members: members, LockTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatalf("new cluster: %v", err)
	}
	defer c.Close()
	c.DB.MustExec(`CREATE TABLE docs (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	paths := clusterPaths(12)
	sess := c.NewSession(alice)
	onFs2 := 0
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
		wf, err := sess.OpenWrite(docURL(t, c, "DLURLCOMPLETEWRITE", i))
		if err != nil {
			t.Fatalf("write open %s: %v", p, err)
		}
		if err := wf.WriteAll([]byte("v1 of " + p)); err != nil {
			t.Fatal(err)
		}
		if err := wf.Close(); err != nil {
			t.Fatalf("commit %s: %v", p, err)
		}
		if owner, _ := c.Owner(p); owner == "fs2" {
			onFs2++
		}
	}
	if onFs2 < 3 {
		t.Skipf("hash placed only %d paths on fs2", onFs2)
	}
	c.WaitArchives()
	if err := c.FailServer("fs2"); err != nil {
		t.Fatal(err)
	}

	// First absorb dies after two successful migrations.
	injected := errors.New("absorbing process killed")
	migrated := 0
	c.migrateHook = func(path, src, dst string) error {
		if src != "fs2" {
			return nil
		}
		if migrated >= 2 {
			return injected
		}
		migrated++
		return nil
	}
	if err := c.AbsorbDead("fs2"); !errors.Is(err, injected) {
		t.Fatalf("first absorb: %v, want injected kill", err)
	}
	// The half-recovered stack must NOT stay routable: its processes are
	// closed, so leaving it in the member table would wedge every lookup
	// that resolves to it — and block the retry.
	if got := strings.Join(c.Members(), ","); got != "fs1" {
		t.Fatalf("members after crashed absorb: %s, want fs1", got)
	}
	// Paths that migrated before the crash serve from fs1 already.
	served := 0
	for _, p := range paths {
		if owner, err := c.Owner(p); err == nil && owner == "fs1" {
			served++
		}
	}
	if served < 2 {
		t.Fatalf("only %d paths served after partial absorb, want the 2 migrated ones at least", served)
	}

	// Second absorb converges.
	c.migrateHook = nil
	if err := c.AbsorbDead("fs2"); err != nil {
		t.Fatalf("second absorb: %v", err)
	}
	m, _ := c.Member("fs1")
	linked := m.DLFM.LinkedPaths()
	if len(linked) != len(paths) {
		t.Fatalf("fs1 links %d paths after convergence, want %d", len(linked), len(paths))
	}
	for i, p := range paths {
		owner, err := c.Owner(p)
		if err != nil || owner != "fs1" {
			t.Fatalf("%s owner = %s, %v", p, owner, err)
		}
		// No lost versions, no double-imported versions: exactly v0 and v1.
		vs := m.Archive.Versions(c.Authority(), p)
		if len(vs) != 2 {
			t.Fatalf("%s history: %d versions, want 2", p, len(vs))
		}
		if string(vs[0].Content()) != "v0 of "+p || string(vs[1].Content()) != "v1 of "+p {
			t.Fatalf("%s history content corrupted", p)
		}
		f, err := sess.OpenRead(docURL(t, c, "DLURLCOMPLETE", i))
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		data, _ := f.ReadAll()
		f.Close()
		if string(data) != "v1 of "+p {
			t.Fatalf("%s = %q after convergence", p, data)
		}
	}
}

func TestKillServerProbeAutoFailover(t *testing.T) {
	c := newReplCluster(t, 3, func(cfg *ClusterConfig) {
		cfg.WriteQuorum = 1
		cfg.ProbeInterval = 20 * time.Millisecond
		cfg.AutoFailover = true
	})
	paths := clusterPaths(8)
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
		if err := commitUpdate(t, c, i, "v1 of "+p); err != nil {
			t.Fatalf("commit %s: %v", p, err)
		}
	}
	c.WaitArchives()
	victim, _ := c.Owner(paths[0])
	// Silent machine death: no FailServer bookkeeping. The probe must notice
	// and fail the member over on its own.
	if err := c.KillServer(victim); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		allServed := true
		for _, p := range paths {
			owner, err := c.Owner(p)
			if err != nil || owner == victim {
				allServed = false
				break
			}
		}
		if allServed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("auto failover did not restore service within 5s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	sess := c.NewSession(alice)
	for i, p := range paths {
		f, err := sess.OpenRead(docURL(t, c, "DLURLCOMPLETE", i))
		if err != nil {
			t.Fatalf("read %s after auto failover: %v", p, err)
		}
		data, _ := f.ReadAll()
		f.Close()
		if string(data) != "v1 of "+p {
			t.Fatalf("%s = %q after auto failover", p, data)
		}
	}
	if c.router.reg.Counter("repl.failovers").Value() == 0 {
		t.Fatal("repl.failovers not counted by the probe-driven failover")
	}
}

// TestReplicaKilledMidShip kills a replica between the ship attempt's member
// lookup and its apply. Members share one process, so the dead replica's
// closed WAL used to panic inside the owner's commit; it must instead answer
// on the member-down path — an under-replicated close, a classified error —
// while the owner keeps serving.
func TestReplicaKilledMidShip(t *testing.T) {
	c := newReplCluster(t, 3, func(cfg *ClusterConfig) { cfg.WriteQuorum = 2 })
	c.repl.policy = retry.Policy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond}
	p := clusterPaths(1)[0]
	linkDoc(t, c, 0, p, "v0 of "+p)
	c.WaitArchives()
	set := c.ReplicaSet(p)
	owner, replica := set[0], set[1]
	kills := 0
	c.replicaApplyHook = func(id string) {
		if id == replica && kills == 0 {
			kills++
			if err := c.KillServer(id); err != nil {
				t.Errorf("kill %s: %v", id, err)
			}
		}
	}

	err := commitUpdate(t, c, 0, "v1 of "+p)
	if kills != 1 {
		t.Fatalf("replica killed %d times, want once mid-ship", kills)
	}
	if err == nil || !strings.Contains(err.Error(), "under-replicated") {
		t.Fatalf("commit with its replica killed mid-ship: err = %v, want under-replicated", err)
	}
	c.WaitArchives()
	m, _ := c.Member(owner)
	if vs := m.Archive.Versions(c.Authority(), p); len(vs) != 2 || string(vs[1].Content()) != "v1 of "+p {
		t.Fatalf("owner history after the replica died: %d versions", len(vs))
	}

	// Every replica-side entry point answers the dead member the same way.
	var retried bool
	err = c.shipToReplica(context.Background(), owner, replica, p, 2, 0, nil, time.Now(), dlfm.ReplicaMeta{}, &retried)
	if !errors.Is(err, errMemberDown) {
		t.Fatalf("commit apply on a dead replica: err = %v, want errMemberDown", err)
	}
	if err := c.shipUnlink(owner, p); !errors.Is(err, errMemberDown) {
		t.Fatalf("unlink apply on a dead replica: err = %v, want errMemberDown", err)
	}
	if err := c.FlushReplication(); !errors.Is(err, errMemberDown) {
		t.Fatalf("catch-up on a dead replica: err = %v, want errMemberDown", err)
	}
	if err := commitUpdate(t, c, 0, "v2 of "+p); err == nil || !strings.Contains(err.Error(), "under-replicated") {
		t.Fatalf("owner after the replica death: err = %v, want an under-replicated but committed close", err)
	}
}

// TestShipToOwningReplicaFailsFast has the replica link the path itself
// before the owner commits. The replica's refusal is permanent — retrying
// cannot make it stop owning the path — so the ship gives up after one
// attempt instead of spending the retry budget inside the commit barrier.
func TestShipToOwningReplicaFailsFast(t *testing.T) {
	c := newReplCluster(t, 3, func(cfg *ClusterConfig) { cfg.WriteQuorum = 2 })
	retries := 0
	c.repl.policy = retry.Policy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
		OnRetry: func(int, error, time.Duration) { retries++ }}
	p := clusterPaths(1)[0]
	linkDoc(t, c, 0, p, "v0 of "+p)
	c.WaitArchives()
	set := c.ReplicaSet(p)
	owner, _ := c.Member(set[0])
	replica, _ := c.Member(set[1])

	// The replica links the path in its own right (rff without recovery, so
	// the link itself archives and ships nothing).
	if err := replica.SeedFile(p, []byte("replica's own "+p), alice); err != nil {
		t.Fatal(err)
	}
	const hostTxn = 1 << 40
	if err := replica.DLFM.LinkFile(hostTxn, p, datalink.ColumnOptions{Mode: datalink.RFF}); err != nil {
		t.Fatalf("replica-side link: %v", err)
	}
	if err := replica.DLFM.PrepareXRM(hostTxn); err != nil {
		t.Fatal(err)
	}
	if err := replica.DLFM.CommitXRM(hostTxn); err != nil {
		t.Fatal(err)
	}

	// The upcall boundary flattens the close's error to text.
	err := commitUpdate(t, c, 0, "v1 of "+p)
	if err == nil || !strings.Contains(err.Error(), "under-replicated") || !strings.Contains(err.Error(), dlfm.ErrReplicaOwned.Error()) {
		t.Fatalf("commit shipped to an owning replica: err = %v, want under-replicated by ErrReplicaOwned", err)
	}
	if retries != 0 {
		t.Fatalf("ship retried %d times against a permanent refusal, want 0", retries)
	}
	if n := owner.DLFM.Metrics().Counter("repl.quorum_waits").Value(); n != 0 {
		t.Fatalf("repl.quorum_waits = %d, want 0", n)
	}
	// The ship itself returns the typed refusal.
	var retried bool
	err = c.shipToReplica(context.Background(), owner.Name, replica.Name, p, 2, 0, nil, time.Now(), dlfm.ReplicaMeta{}, &retried)
	if !errors.Is(err, dlfm.ErrReplicaOwned) || retried {
		t.Fatalf("ship to an owning replica: err = %v retried = %v, want ErrReplicaOwned on the first attempt", err, retried)
	}
}

// seedReplicated links n RDD paths with one commit each on a replicated
// cluster and returns them with their owners' history digests.
func seedReplicated(t *testing.T, c *Cluster, n int) ([]string, map[string]string) {
	t.Helper()
	paths := clusterPaths(n)
	for i, p := range paths {
		linkDoc(t, c, i, p, "v0 of "+p)
		if err := commitUpdate(t, c, i, "v1 of "+p); err != nil {
			t.Fatalf("commit %s: %v", p, err)
		}
	}
	c.WaitArchives()
	digests := make(map[string]string, n)
	onFs2 := 0
	for _, p := range paths {
		digests[p] = historyDigest(t, c, p)
		if owner, _ := c.Owner(p); owner == "fs2" {
			onFs2++
		}
	}
	if onFs2 == 0 {
		t.Fatal("hash placed no test path on fs2")
	}
	return paths, digests
}

// assertMembershipPreserved checks the state a membership change must leave
// behind: every path serves its last acked content, no member is both owner
// and replica of a path, replica sets match their owners, and no history
// changed.
func assertMembershipPreserved(t *testing.T, c *Cluster, paths []string, digests map[string]string) {
	t.Helper()
	sess := c.NewSession(alice)
	for i, p := range paths {
		f, err := sess.OpenRead(docURL(t, c, "DLURLCOMPLETE", i))
		if err != nil {
			t.Fatalf("read %s: %v", p, err)
		}
		data, _ := f.ReadAll()
		f.Close()
		if string(data) != "v1 of "+p {
			t.Fatalf("%s = %q, want the acked v1", p, data)
		}
	}
	for _, id := range c.Members() {
		m, _ := c.Member(id)
		for _, p := range m.DLFM.ReplicaPaths() {
			if m.DLFM.IsLinked(p) {
				t.Fatalf("%s both owns and replicates %s", id, p)
			}
		}
	}
	assertReplicasConverged(t, c, paths)
	for _, p := range paths {
		if got := historyDigest(t, c, p); got != digests[p] {
			t.Fatalf("%s history digest changed across the membership change", p)
		}
	}
}

// TestRemoveServerWithReplicas drains a member whose paths' new owners are
// their first ring successors — members that already hold the replica. The
// migration catches each one up and promotes it instead of refusing it.
func TestRemoveServerWithReplicas(t *testing.T) {
	c := newReplCluster(t, 3, nil)
	paths, digests := seedReplicated(t, c, 18)
	if err := c.RemoveServer("fs2"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if got := strings.Join(c.Members(), ","); got != "fs1,fs3" {
		t.Fatalf("members after remove: %s", got)
	}
	assertMembershipPreserved(t, c, paths, digests)
}

// TestAbsorbDeadWithReplicas cold-starts a failed member and moves its paths
// onto survivors that already replicate them.
func TestAbsorbDeadWithReplicas(t *testing.T) {
	c := newReplCluster(t, 3, func(cfg *ClusterConfig) {
		for i := range cfg.Members {
			cfg.Members[i].RepoDir = t.TempDir()
			cfg.Members[i].ArchiveDir = t.TempDir()
		}
	})
	paths, digests := seedReplicated(t, c, 18)
	if err := c.FailServer("fs2"); err != nil {
		t.Fatalf("fail: %v", err)
	}
	if err := c.AbsorbDead("fs2"); err != nil {
		t.Fatalf("absorb: %v", err)
	}
	if got := strings.Join(c.Members(), ","); got != "fs1,fs3" {
		t.Fatalf("members after absorb: %s", got)
	}
	assertMembershipPreserved(t, c, paths, digests)
}

// TestAbsorbDeadKeepsAckedUnarchivedCommit fails a member whose last commit
// a write quorum acked but whose own archive never took it: the cold start
// walks the member's version back to what its archive holds, so the survivor
// that replicates the path is ahead of it. Absorbing must keep the acked
// version — that replica is promoted, not resynced from the shorter history.
func TestAbsorbDeadKeepsAckedUnarchivedCommit(t *testing.T) {
	c := newReplCluster(t, 3, func(cfg *ClusterConfig) {
		for i := range cfg.Members {
			cfg.Members[i].RepoDir = t.TempDir()
			cfg.Members[i].ArchiveDir = t.TempDir()
		}
	})
	paths, digests := seedReplicated(t, c, 18)
	doc := -1
	for i, p := range paths {
		if owner, _ := c.Owner(p); owner == "fs2" {
			doc = i
			break
		}
	}
	p := paths[doc]
	fs2, _ := c.Member("fs2")
	replicaID := c.ReplicaSet(p)[1]
	replica, _ := c.Member(replicaID)
	// fs2's archive device dies first: the commit is acked by fs2 and its
	// replica, and fs2's archive job for it fails.
	fs2.Archive.Crash()
	if err := commitUpdate(t, c, doc, "v2 of "+p); err != nil {
		t.Fatalf("commit with the owner's archive down: %v", err)
	}
	c.WaitArchives()
	if got := c.lastArchived(fs2, p); got != 1 {
		t.Fatalf("owner archived up to v%d, want v1 (its archive job must fail)", got)
	}
	if got := replica.DLFM.ReplicaVersion(p); got != 2 {
		t.Fatalf("replica %s at v%d, want the acked v2", replicaID, got)
	}
	digests[p] = memberDigest(t, c, replicaID, p)
	if err := c.FailServer("fs2"); err != nil {
		t.Fatalf("fail: %v", err)
	}
	if err := c.AbsorbDead("fs2"); err != nil {
		t.Fatalf("absorb: %v", err)
	}
	if owner, err := c.Owner(p); err != nil || owner != replicaID {
		t.Fatalf("owner of %s after absorb = %s, %v; want the promoted replica %s", p, owner, err, replicaID)
	}
	f, err := c.NewSession(alice).OpenRead(docURL(t, c, "DLURLCOMPLETE", doc))
	if err != nil {
		t.Fatalf("read %s: %v", p, err)
	}
	data, _ := f.ReadAll()
	f.Close()
	if string(data) != "v2 of "+p {
		t.Fatalf("%s = %q after absorb, want the acked v2", p, data)
	}
	assertReplicasConverged(t, c, paths)
	for _, q := range paths {
		if got := historyDigest(t, c, q); got != digests[q] {
			t.Fatalf("%s history digest changed across the absorb", q)
		}
	}
}

// TestUnlinkQuorumShortOfTargets ships an unlink when fewer replica targets
// exist than the quorum needs and every one of them acks: the shortfall is
// a member-down verdict, not an error wrapping nothing.
func TestUnlinkQuorumShortOfTargets(t *testing.T) {
	c := newReplCluster(t, 3, func(cfg *ClusterConfig) { cfg.Replicas = 3 })
	p := clusterPaths(1)[0]
	linkDoc(t, c, 0, p, "v0 of "+p)
	c.WaitArchives()
	if err := c.FailServer("fs3"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Failover("fs3"); err != nil {
		t.Fatalf("failover: %v", err)
	}
	owner, err := c.Owner(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.shipUnlink(owner, p); !errors.Is(err, errMemberDown) {
		t.Fatalf("unlink short of replica targets: err = %v, want errMemberDown", err)
	}
}

// TestReplicationCatchUpResyncsDivergedHistory gives a replica a history
// that does not extend its owner's, as after the owner restored to an older
// point: the one history mover drops it, resyncs from scratch, and reports
// the versions it moved.
func TestReplicationCatchUpResyncsDivergedHistory(t *testing.T) {
	c := newReplCluster(t, 3, nil)
	p := clusterPaths(1)[0]
	linkDoc(t, c, 0, p, "v0 of "+p)
	if err := commitUpdate(t, c, 0, "v1 of "+p); err != nil {
		t.Fatalf("commit: %v", err)
	}
	c.WaitArchives()
	set := c.ReplicaSet(p)
	src, _ := c.Member(set[0])
	dst, _ := c.Member(set[1])
	if err := dst.Archive.Drop(c.Authority(), p); err != nil {
		t.Fatal(err)
	}
	for _, v := range []int64{0, 5} {
		if err := dst.Archive.Put(c.Authority(), p, archive.Version(v), 1, []byte(fmt.Sprintf("foreign v%d", v))); err != nil {
			t.Fatal(err)
		}
	}
	catchUp := func() (int, error) {
		defer dst.DLFM.LockReplica(p)()
		return c.catchUpReplica(src, dst, p)
	}
	if n, err := catchUp(); err != nil || n != 2 {
		t.Fatalf("catch-up of a diverged replica: moved %d versions, err %v; want a 2-version resync", n, err)
	}
	if got, want := memberDigest(t, c, set[1], p), memberDigest(t, c, set[0], p); got != want {
		t.Fatalf("replica digest %s != owner digest %s after resync", got[:12], want[:12])
	}
	if n, err := catchUp(); err != nil || n != 0 {
		t.Fatalf("catch-up of a caught-up replica: moved %d versions, err %v; want 0", n, err)
	}
	// A ship to a replica that lost its history catches it up and applies the
	// frame in the same attempt: no retry, no quorum wait.
	if err := dst.Archive.Drop(c.Authority(), p); err != nil {
		t.Fatal(err)
	}
	waits := src.DLFM.Metrics().Counter("repl.quorum_waits").Value()
	lag := src.DLFM.Metrics().Counter("repl.lag_versions").Value()
	if err := commitUpdate(t, c, 0, "v2 of "+p); err != nil {
		t.Fatalf("commit to a lagging replica: %v", err)
	}
	if n := src.DLFM.Metrics().Counter("repl.quorum_waits").Value() - waits; n != 0 {
		t.Fatalf("lag catch-up needed %d retried ships, want 0", n)
	}
	if src.DLFM.Metrics().Counter("repl.lag_versions").Value() == lag {
		t.Fatal("lag catch-up not counted in repl.lag_versions")
	}
	c.WaitArchives()
	if got, want := memberDigest(t, c, set[1], p), memberDigest(t, c, set[0], p); got != want {
		t.Fatalf("replica digest %s != owner digest %s after the lagging ship", got[:12], want[:12])
	}
}
