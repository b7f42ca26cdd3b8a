package harness

import (
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"datalinks/internal/core"
	"datalinks/internal/ring"
	"datalinks/internal/workload"
)

func init() {
	Register(Experiment{
		ID:    "E21",
		Title: "Scale-out namespace: consistent-hash routing and live rebalance",
		Paper: "The paper scopes one DLFM per file server and leaves multi-server growth to deployment. This experiment quantifies the scale-out extension: one DATALINK authority spread over N file servers by a consistent-hash ring must scale aggregate commit throughput with N under a skewed (zipfian) read load, and adding a server mid-run must migrate the reassigned paths live — no acknowledged commit lost, every migrated version history byte-identical.",
		Run:   runE21,
	})
}

// The E21 knobs, exported so cmd/dlbench can sweep them from the command
// line. Each round links ScaleoutFiles rdd files across a cluster of N
// members and drives ScaleoutSessions sessions for ScaleoutRound: half the
// sessions read zipfian-addressed files (the skew the ring has to spread),
// half commit in-place updates round-robin over disjoint partitions of the
// zipf-cold half of the namespace. Rounds are time-bounded so the reported
// commits/s is the aggregate the cluster sustains — a member slowed by the
// zipf-hot paths it owns contributes less, it does not gate the clock.
var (
	ScaleoutServers  = []int{1, 4, 16}
	ScaleoutSessions = 64
	ScaleoutRound    = 2 * time.Second
	ScaleoutFiles    = 256
	// ScaleoutUpcallLatency simulates the DLFS→DLFM IPC hop;
	// ScaleoutUpcallWidth bounds concurrent upcalls per member, so a single
	// member models a finite machine and scaling must come from adding them.
	// The defaults keep each member's capacity dominated by simulated wire
	// time rather than host CPU, so the curve measures the architecture even
	// on a small runner.
	ScaleoutUpcallLatency = 4 * time.Millisecond
	ScaleoutUpcallWidth   = 2
)

// scaleoutContent encodes a path's committed sequence number so verification
// can recover it from the file bytes alone.
func scaleoutContent(path string, seq int64) []byte {
	return []byte(fmt.Sprintf("seq%06d %s scale-out payload", seq, path))
}

// scaleoutSeq parses the sequence number back out of file content (-1: not a
// scale-out payload).
func scaleoutSeq(content []byte) int64 {
	s := string(content)
	if !strings.HasPrefix(s, "seq") {
		return -1
	}
	end := strings.IndexByte(s, ' ')
	if end < 0 {
		return -1
	}
	n, err := strconv.ParseInt(s[3:end], 10, 64)
	if err != nil {
		return -1
	}
	return n
}

func scaleoutPath(i int) string { return fmt.Sprintf("/z/f%d.bin", i) }

// e21Setup builds an N-member cluster, links ScaleoutFiles rdd files under
// the shared authority, and resolves their tokenized read URLs.
func e21Setup(servers int) (*core.Cluster, []string, []string, error) {
	members := make([]core.ServerConfig, servers)
	for i := range members {
		members[i] = core.ServerConfig{
			Name:          fmt.Sprintf("fs%d", i+1),
			UpcallLatency: ScaleoutUpcallLatency,
			UpcallWidth:   ScaleoutUpcallWidth,
			OpenWait:      10 * time.Second,
		}
	}
	c, err := core.NewCluster(core.ClusterConfig{Members: members, LockTimeout: 10 * time.Second})
	if err != nil {
		return nil, nil, nil, err
	}
	fail := func(err error) (*core.Cluster, []string, []string, error) {
		c.Close()
		return nil, nil, nil, err
	}
	c.DB.MustExec(`CREATE TABLE sc (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES, doc_size INT)`)
	paths := make([]string, ScaleoutFiles)
	readURLs := make([]string, ScaleoutFiles)
	for i := range paths {
		paths[i] = scaleoutPath(i)
		if err := c.SeedFile(paths[i], scaleoutContent(paths[i], 0), expUID); err != nil {
			return fail(err)
		}
		if _, err := c.DB.Exec(
			fmt.Sprintf(`INSERT INTO sc VALUES (%d, DLVALUE('%s'), NULL)`, i, c.URL(paths[i]))); err != nil {
			return fail(err)
		}
		row, err := c.DB.QueryRow(fmt.Sprintf(`SELECT DLURLCOMPLETE(doc) FROM sc WHERE id = %d`, i))
		if err != nil {
			return fail(err)
		}
		readURLs[i] = row[0].S
	}
	return c, paths, readURLs, nil
}

// e21TrafficResult aggregates one traffic phase.
type e21TrafficResult struct {
	wall    time.Duration
	reads   int64
	commits int64
	acked   []int64 // per path, the last sequence whose Close returned cleanly
	samples []time.Duration
}

// e21Traffic drives the reader/writer session mix for one round. Reader
// sessions loop zipfian token-gated opens; writer sessions loop in-place
// update commits round-robin over disjoint partitions of the zipf-cold half
// of the namespace — an rdd write-open needs a reader-free gap (the design
// serializes reads against updates with no read locks), so updating the
// hottest read targets would measure writer starvation, not cluster
// capacity. Writer partitions are disjoint and the per-path acked sequence
// is written under a mutex, giving verification a total order to compare
// file bytes against.
func e21Traffic(c *core.Cluster, paths, readURLs []string) (e21TrafficResult, error) {
	res := e21TrafficResult{acked: make([]int64, len(paths))}
	pathMu := make([]sync.Mutex, len(paths))
	perSession := make([][]time.Duration, ScaleoutSessions)
	var reads, commits atomic.Int64
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	stop := make(chan struct{})
	timer := time.AfterFunc(ScaleoutRound, func() { close(stop) })
	defer timer.Stop()
	stopped := func() bool {
		select {
		case <-stop:
			return true
		default:
			return false
		}
	}
	writers := ScaleoutSessions / 2
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < ScaleoutSessions; s++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sess := c.NewSession(expUID)
			if id >= writers {
				// Reader: zipfian over the read half of the namespace. An rdd
				// update excludes readers for its whole open-to-commit span by
				// design, so files under a continuous update stream would
				// starve readers out of their OpenWait — that conflict is
				// measured elsewhere; here it would just poison the curve.
				z := workload.NewZipf(workload.RNG(int64(id)+1), len(paths)/2)
				for !stopped() {
					i := z.Next()
					opStart := time.Now()
					err := func() error {
						f, err := sess.OpenRead(readURLs[i])
						if err != nil {
							return err
						}
						if _, err := f.ReadAll(); err != nil {
							return err
						}
						return f.Close()
					}()
					perSession[id] = append(perSession[id], time.Since(opStart))
					if err != nil {
						fail(fmt.Errorf("reader %d on %s: %w", id, paths[i], err))
						return
					}
					reads.Add(1)
				}
				return
			}
			// Writer: one dedicated file from the zipf-cold half. A writer
			// cycling over paths on several members would couple its pace to
			// the slowest member it visits; one file per writer lets commits
			// against healthy members flow at their own rate.
			i := len(paths)/2 + id%(len(paths)-len(paths)/2)
			for !stopped() {
				opStart := time.Now()
				err := func() error {
					pathMu[i].Lock()
					defer pathMu[i].Unlock()
					row, err := c.DB.QueryRow(fmt.Sprintf(`SELECT DLURLCOMPLETEWRITE(doc) FROM sc WHERE id = %d`, i))
					if err != nil {
						return err
					}
					f, err := sess.OpenWrite(row[0].S)
					if err != nil {
						return err
					}
					seq := res.acked[i] + 1
					if err := f.WriteAll(scaleoutContent(paths[i], seq)); err != nil {
						_ = f.Abort()
						return err
					}
					if err := f.Close(); err != nil {
						return err
					}
					res.acked[i] = seq
					commits.Add(1)
					return nil
				}()
				perSession[id] = append(perSession[id], time.Since(opStart))
				if err != nil {
					fail(fmt.Errorf("writer %d on %s: %w", id, paths[i], err))
					return
				}
			}
		}(s)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.reads = reads.Load()
	res.commits = commits.Load()
	for _, s := range perSession {
		res.samples = append(res.samples, s...)
	}
	errMu.Lock()
	err := firstErr
	errMu.Unlock()
	return res, err
}

// e21Lost counts paths whose final bytes do not match their last
// acknowledged commit — with client-serialized writers and every op required
// to succeed, the file must read back exactly the acked sequence.
func e21Lost(c *core.Cluster, paths []string, acked []int64) (int, error) {
	c.WaitArchives()
	lost := 0
	for i, p := range paths {
		id, err := c.Owner(p)
		if err != nil {
			return 0, err
		}
		m, err := c.Member(id)
		if err != nil {
			return 0, err
		}
		content, err := m.Phys.ReadFile(p)
		if err != nil {
			return 0, fmt.Errorf("read back %s on %s: %w", p, id, err)
		}
		if scaleoutSeq(content) != acked[i] {
			lost++
		}
	}
	return lost, nil
}

// e21Digest hashes a path's full archived version history on its current
// owner: version numbers, lengths, and content bytes.
func e21Digest(c *core.Cluster, path string) (string, error) {
	id, err := c.Owner(path)
	if err != nil {
		return "", err
	}
	m, err := c.Member(id)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	for _, e := range m.Archive.Versions(c.Authority(), path) {
		fmt.Fprintf(h, "%d:%d:", e.Version, len(e.Content()))
		h.Write(e.Content())
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

// runE21 measures aggregate commit throughput vs cluster size, then
// rebalances a loaded cluster live and proves the move lost nothing.
func runE21() ([]*Table, error) {
	scale := &Table{
		Caption: "E21. Aggregate throughput vs cluster size (zipfian reads over one authority)",
		Headers: []string{"servers", "sessions", "round", "reads/s", "commits", "commits/s", "p50", "p99", "lost acked"},
	}
	var baseCommitRate float64
	commitRate := make(map[int]float64)
	for _, n := range ScaleoutServers {
		c, paths, readURLs, err := e21Setup(n)
		if err != nil {
			return nil, err
		}
		res, err := e21Traffic(c, paths, readURLs)
		if err != nil {
			c.Close()
			return nil, fmt.Errorf("E21 %d-server round: %w", n, err)
		}
		lost, err := e21Lost(c, paths, res.acked)
		c.Close()
		if err != nil {
			return nil, err
		}
		cps := float64(res.commits) / res.wall.Seconds()
		commitRate[n] = cps
		if baseCommitRate == 0 {
			baseCommitRate = cps
		}
		s := Summarize(res.samples)
		scale.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%dr+%dw", ScaleoutSessions-ScaleoutSessions/2, ScaleoutSessions/2),
			Dur(res.wall),
			fmt.Sprintf("%.0f", float64(res.reads)/res.wall.Seconds()),
			fmt.Sprintf("%d", res.commits),
			fmt.Sprintf("%.0f (%.1fx)", cps, cps/baseCommitRate),
			Dur(s.P50), Dur(quantile(res.samples, 0.99)),
			fmt.Sprintf("%d", lost),
		)
		if lost > 0 {
			return []*Table{scale}, fmt.Errorf("E21 FAILED: %d-server round lost %d acked commit(s)", n, lost)
		}
	}
	scale.Note("%d rdd files under one dlfs://cluster authority, placement by consistent hash (%d vnodes/member); every member's upcall channel is %d wide with %v IPC latency, so one member is a bounded machine",
		ScaleoutFiles, ring.DefaultVirtualNodes, ScaleoutUpcallWidth, ScaleoutUpcallLatency)
	scale.Note("reader sessions address one half of the namespace zipfian, writer sessions each commit continuously to a dedicated file in the other half (rdd excludes readers for an update's whole open-to-commit span, so mixing the sets measures that conflict, not capacity); the member owning the hottest read paths saturates first, which is what keeps the largest cluster below perfectly linear")

	// Live rebalance: start 2 members under full traffic, add a third a third
	// of the way into the round, and let the remaining traffic ride through
	// the migrations.
	c, paths, readURLs, err := e21Setup(2)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	rebalanceDone := make(chan error, 1)
	var rebalanceWall time.Duration
	go func() {
		time.Sleep(ScaleoutRound / 3)
		t0 := time.Now()
		err := c.AddServer(core.ServerConfig{
			Name:          "fs3",
			UpcallLatency: ScaleoutUpcallLatency,
			UpcallWidth:   ScaleoutUpcallWidth,
			OpenWait:      10 * time.Second,
		})
		rebalanceWall = time.Since(t0)
		rebalanceDone <- err
	}()
	trafficRes, trafficErr := e21Traffic(c, paths, readURLs)
	if err := <-rebalanceDone; err != nil {
		return nil, fmt.Errorf("E21 FAILED: live AddServer: %w", err)
	}
	if trafficErr != nil {
		return nil, fmt.Errorf("E21 FAILED: traffic during rebalance: %w", trafficErr)
	}
	lost, err := e21Lost(c, paths, trafficRes.acked)
	if err != nil {
		return nil, err
	}
	ringReg := c.Router().Metrics()
	movesLive := ringReg.Counter("ring.moves").Value()
	forwards := ringReg.Counter("ring.forwards").Value()

	// Quiesced migration byte-fidelity: digest every path's archived history,
	// grow the ring again, and require every digest unchanged on the new
	// owners.
	before := make([]string, len(paths))
	for i, p := range paths {
		if before[i], err = e21Digest(c, p); err != nil {
			return nil, err
		}
	}
	if err := c.AddServer(core.ServerConfig{
		Name:          "fs4",
		UpcallLatency: ScaleoutUpcallLatency,
		UpcallWidth:   ScaleoutUpcallWidth,
		OpenWait:      10 * time.Second,
	}); err != nil {
		return nil, fmt.Errorf("E21 FAILED: quiesced AddServer: %w", err)
	}
	mismatched := 0
	for i, p := range paths {
		after, err := e21Digest(c, p)
		if err != nil {
			return nil, err
		}
		if after != before[i] {
			mismatched++
		}
	}
	movesQuiesced := ringReg.Counter("ring.moves").Value() - movesLive

	s := Summarize(trafficRes.samples)
	reb := &Table{
		Caption: "E21b. Live rebalance under load (2 → 3 members, then a quiesced 3 → 4)",
		Headers: []string{"commits", "lost acked", "paths moved live", "rebalance wall", "forwards", "p50", "p99", "max op", "quiesced moves", "history mismatches"},
	}
	var maxOp time.Duration
	for _, d := range trafficRes.samples {
		if d > maxOp {
			maxOp = d
		}
	}
	reb.AddRow(
		fmt.Sprintf("%d", trafficRes.commits),
		fmt.Sprintf("%d", lost),
		fmt.Sprintf("%d", movesLive),
		Dur(rebalanceWall),
		fmt.Sprintf("%d", forwards),
		Dur(s.P50), Dur(quantile(trafficRes.samples, 0.99)), Dur(maxOp),
		fmt.Sprintf("%d", movesQuiesced),
		fmt.Sprintf("%d", mismatched),
	)
	reb.Note("a move drains the path's in-flight opens, freezes it, catches the new owner's archive history up through the replication delta path (chunk-deduped), imports the repository row, and evicts the source; a forward is an op that waited out a move gate")
	reb.Note("history digests hash (version, length, bytes) of every archived version before and after the quiesced migration — byte fidelity, not just latest-content equality")

	tables := []*Table{scale, reb}
	if lost > 0 {
		return tables, fmt.Errorf("E21 FAILED: rebalance round lost %d acked commit(s)", lost)
	}
	if mismatched > 0 {
		return tables, fmt.Errorf("E21 FAILED: %d path(s) changed archived history across migration", mismatched)
	}
	if maxOp > 30*time.Second {
		return tables, fmt.Errorf("E21 FAILED: an op took %v during rebalance — a client hung", maxOp)
	}
	// The scaling gate is a perf assertion about the uninstrumented system;
	// under the race detector per-op CPU cost inflates enough to break the
	// latency-domination the round design relies on, so skip it there.
	if r1, ok1 := commitRate[1]; ok1 && !raceEnabled {
		if r4, ok4 := commitRate[4]; ok4 && r4 < 3*r1 {
			return tables, fmt.Errorf("E21 FAILED: 1→4 servers scaled commits/s only %.1fx (need >= 3x)", r4/r1)
		}
	}
	return tables, nil
}
