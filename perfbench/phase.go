package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"datalinks"
	"datalinks/internal/core"
	"datalinks/internal/metrics"
)

const (
	writeSQL = `SELECT DLURLCOMPLETEWRITE(doc) FROM docs WHERE id = ?`
	readSQL  = `SELECT DLURLCOMPLETE(doc) FROM docs WHERE id = ?`
	// warmOps is how many operations each session runs before timing starts,
	// so lazily built state (token grants, pooled connections, first page-ins)
	// is not charged to the timed phase.
	warmOps = 32
)

// shadow holds each file's last acknowledged content. A file's lock is held
// by a writer from open to the shadow update and by a reader from open to
// the comparison, so a read is checked against exactly the version it saw.
// The program serializes readers against writers the same way (§4.2).
type shadow struct {
	locks     []sync.RWMutex
	data      [][]byte
	acked     []int  // acknowledged updates, warm-up included
	uncertain []bool // a commit whose outcome the client could not learn
}

// newShadow takes ownership of contents: seeding copied them into the file
// system, so the shadow can evolve them in place.
func newShadow(contents [][]byte) *shadow {
	return &shadow{
		locks:     make([]sync.RWMutex, len(contents)),
		data:      contents,
		acked:     make([]int, len(contents)),
		uncertain: make([]bool, len(contents)),
	}
}

// timings are one session's per-call samples: operation latencies in ms,
// public-call latencies in µs.
type timings struct {
	update, read                                        []float64
	token, openWrite, write, commit, openRead, readCall []float64
}

func (t *timings) merge(o *timings) {
	t.update = append(t.update, o.update...)
	t.read = append(t.read, o.read...)
	t.token = append(t.token, o.token...)
	t.openWrite = append(t.openWrite, o.openWrite...)
	t.write = append(t.write, o.write...)
	t.commit = append(t.commit, o.commit...)
	t.openRead = append(t.openRead, o.openRead...)
	t.readCall = append(t.readCall, o.readCall...)
}

// tally is what a phase's sessions did.
type tally struct {
	t                 timings
	done              []time.Time // completion time of each acknowledged op
	updates, reads    int
	attempted, failed int
	edited            int64 // user bytes written by acknowledged updates
	badReads          int   // reads whose bytes differ from the shadow
	firstErr          error
}

func (a *tally) merge(b *tally) {
	a.t.merge(&b.t)
	a.done = append(a.done, b.done...)
	a.updates += b.updates
	a.reads += b.reads
	a.attempted += b.attempted
	a.failed += b.failed
	a.edited += b.edited
	a.badReads += b.badReads
	if a.firstErr == nil {
		a.firstErr = b.firstErr
	}
}

func (a *tally) fail(err error) {
	a.failed++
	if a.firstErr == nil {
		a.firstErr = err
	}
}

// client is one closed-loop session: it sends its next operation only after
// the previous one returned.
type client struct {
	e    *env
	sess opener
	sh   *shadow
	gen  func(k int) op
	k    int
}

func (c *client) update(o op, st *tally) {
	st.attempted++
	t0 := time.Now()
	url, err := c.e.queryString(writeSQL, o.file)
	if err != nil {
		st.fail(fmt.Errorf("write token: %w", err))
		return
	}
	st.t.token = append(st.t.token, us(time.Since(t0)))
	c.sh.locks[o.file].Lock()
	defer c.sh.locks[o.file].Unlock()
	t1 := time.Now()
	f, err := c.sess.OpenWrite(url)
	if err != nil {
		st.fail(fmt.Errorf("open write: %w", err))
		return
	}
	st.t.openWrite = append(st.t.openWrite, us(time.Since(t1)))
	for _, ed := range o.edits {
		w := time.Now()
		n, err := f.WriteAt(ed.off, ed.data)
		if err == nil && n != len(ed.data) {
			err = fmt.Errorf("short write %d of %d", n, len(ed.data))
		}
		if err != nil {
			_ = f.Abort() // the failure is what is reported
			st.fail(fmt.Errorf("write: %w", err))
			return
		}
		st.t.write = append(st.t.write, us(time.Since(w)))
	}
	t2 := time.Now()
	if err := f.Close(); err != nil {
		c.sh.uncertain[o.file] = true
		st.fail(fmt.Errorf("commit: %w", err))
		return
	}
	done := time.Now()
	st.t.commit = append(st.t.commit, us(done.Sub(t2)))
	st.t.update = append(st.t.update, ms(done.Sub(t0)))
	st.done = append(st.done, done)
	for _, ed := range o.edits {
		copy(c.sh.data[o.file][ed.off:], ed.data)
		st.edited += int64(len(ed.data))
	}
	c.sh.acked[o.file]++
	st.updates++
}

func (c *client) read(o op, st *tally) {
	st.attempted++
	t0 := time.Now()
	url, err := c.e.queryString(readSQL, o.file)
	if err != nil {
		st.fail(fmt.Errorf("read token: %w", err))
		return
	}
	st.t.token = append(st.t.token, us(time.Since(t0)))
	c.sh.locks[o.file].RLock()
	defer c.sh.locks[o.file].RUnlock()
	t1 := time.Now()
	f, err := c.sess.OpenRead(url)
	if err != nil {
		st.fail(fmt.Errorf("open read: %w", err))
		return
	}
	st.t.openRead = append(st.t.openRead, us(time.Since(t1)))
	buf := make([]byte, o.n)
	t2 := time.Now()
	n, err := f.ReadAt(o.off, buf)
	st.t.readCall = append(st.t.readCall, us(time.Since(t2)))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		st.fail(fmt.Errorf("read: %w", err))
		return
	}
	done := time.Now()
	st.t.read = append(st.t.read, ms(done.Sub(t0)))
	st.done = append(st.done, done)
	st.reads++
	want := c.sh.data[o.file][o.off : o.off+o.n]
	if !c.sh.uncertain[o.file] && (int64(n) != o.n || !bytes.Equal(buf, want)) {
		st.badReads++
	}
}

// drive runs every client concurrently until stop says so, and returns the
// merged tally and the time the last client finished.
func drive(clients []*client, stop func(k int) bool) (*tally, time.Time) {
	tallies := make([]tally, len(clients))
	ends := make([]time.Time, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for start := c.k; !stop(c.k - start); c.k++ {
				if o := c.gen(c.k); o.update {
					c.update(o, &tallies[i])
				} else {
					c.read(o, &tallies[i])
				}
			}
			ends[i] = time.Now()
		}(i, c)
	}
	wg.Wait()
	var out tally
	var last time.Time
	for i := range tallies {
		out.merge(&tallies[i])
		if ends[i].After(last) {
			last = ends[i]
		}
	}
	return &out, last
}

// phase is the outcome of one set-up, timed phase and verification.
type phase struct {
	// setupCPUS is each set-up's process CPU time, setupWallS its wall
	// time. The CPU time is the gated set-up cost: on a shared host the
	// wall time of a 0.1 s set-up swung by half between otherwise equal
	// runs, with the CPU other guests took.
	setupCPUS, setupWallS []float64
	start                 time.Time
	elapsed               time.Duration
	cpu                   time.Duration // user and system CPU of the timed phase
	timed                 *tally
	all                   tally // warm-up and timed
	before                counters
	after                 counters
	drainMS               float64
	// rssReadyMB is the peak resident set before the timed phase: the
	// footprint of the set-up, seeded and warmed deployment. The whole
	// run's peak also grows with the versions the timed phase commits, so
	// a faster program would show a higher one.
	rssReadyMB float64
	spaceAmp   float64 // NaN unless durable
	recoverS   float64 // NaN unless the workload cold-starts
	// Cold-start reports (edit-large only).
	materialized, replayedVersions int
	coldPageIns                    int64
	traces                         []*span
	problems                       []string // failed correctness checks
	hist                           map[string][]float64
}

func (p *phase) problem(format string, args ...any) {
	p.problems = append(p.problems, fmt.Sprintf(format, args...))
}

// checkNoInjectedDelay refuses a server config that would make the timed
// path sleep: time.Sleep floors near a millisecond, so an injected delay
// would time the timer instead of the stack.
func checkNoInjectedDelay(cfgs ...datalinks.ServerConfig) error {
	for _, c := range cfgs {
		if c.UpcallLatency != 0 || c.ArchiveLatency != 0 {
			return fmt.Errorf("server %q injects latency (upcall %v, archive %v)", c.Name, c.UpcallLatency, c.ArchiveLatency)
		}
		if c.UpcallNet != nil && c.UpcallNet.Client.Chaos != nil {
			return fmt.Errorf("server %q injects upcall faults", c.Name)
		}
	}
	return nil
}

// setup opens the deployment, seeds the files and links them: the work
// setup_s times.
func setup(sp *spec, dir string, traced bool, contents [][]byte) (*env, error) {
	e := &env{}
	if sp.cluster {
		members := make([]datalinks.ServerConfig, 3)
		for i := range members {
			members[i] = sp.server(dir, traced)
			members[i].Name = fmt.Sprintf("m%d", i+1)
		}
		if err := checkNoInjectedDelay(members...); err != nil {
			return nil, err
		}
		cl, err := datalinks.OpenCluster(datalinks.ClusterConfig{
			Members: members, Replicas: 3, LockTimeout: lockTimeout,
		})
		if err != nil {
			return nil, err
		}
		e.cl = cl
	} else {
		e.cfg = sp.server(dir, traced)
		if err := checkNoInjectedDelay(e.cfg); err != nil {
			return nil, err
		}
		sys, err := datalinks.Open(datalinks.Config{Servers: []datalinks.ServerConfig{e.cfg}, LockTimeout: lockTimeout})
		if err != nil {
			return nil, err
		}
		e.sys = sys
	}
	err := e.exec(`CREATE TABLE docs (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES, doc_size INT)`)
	for i := 0; err == nil && i < len(contents); i++ {
		if err = e.seedFile(filePath(i), contents[i]); err == nil {
			err = e.exec(fmt.Sprintf(`INSERT INTO docs VALUES (%d, DLVALUE('%s'), %d)`,
				i, e.url(filePath(i)), len(contents[i])))
		}
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("seed and link: %w", err)
	}
	return e, nil
}

// runPhase sets up setups times (timing each, keeping the last), warms up,
// drives the timed phase for the given duration, drains archives and checks
// every file against the shadow — again after a crash and cold start when
// the workload has one.
func runPhase(sp *spec, seed int64, dur time.Duration, traced bool, setups int, tmp string) (*phase, error) {
	p := &phase{spaceAmp: nan, recoverS: nan}
	contents := make([][]byte, sp.files)
	for i := range contents {
		contents[i] = fileContent(seed, i, sp.fileSize)
	}
	var e *env
	var dir string
	cleanup := func() {
		if e != nil {
			e.close()
			e = nil
		}
		if dir != "" {
			os.RemoveAll(dir)
			dir = ""
		}
	}
	defer cleanup()
	for i := 0; i < setups; i++ {
		if e != nil {
			// Collect the previous deployment but keep its pages mapped:
			// faulting them back in from the hypervisor made set-up times
			// swing by a third between set-ups.
			cleanup()
			runtime.GC()
		}
		var err error
		if dir, err = os.MkdirTemp(tmp, "setup-*"); err != nil {
			return nil, err
		}
		cpu0, err := processCPU()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if e, err = setup(sp, dir, traced, contents); err != nil {
			return nil, err
		}
		p.setupWallS = append(p.setupWallS, time.Since(start).Seconds())
		cpu1, err := processCPU()
		if err != nil {
			return nil, err
		}
		p.setupCPUS = append(p.setupCPUS, (cpu1 - cpu0).Seconds())
	}

	sh := newShadow(contents)
	clients := make([]*client, sessions)
	for i := range clients {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		clients[i] = &client{e: e, sess: e.session(), sh: sh, gen: sp.gen(sp, rng, i)}
	}
	warm, _ := drive(clients, func(k int) bool { return k >= warmOps })
	p.all.merge(warm)
	e.waitArchives()
	var err error
	if p.rssReadyMB, err = peakRSSMB(); err != nil {
		return nil, err
	}

	if traced {
		metrics.RetainExactSamples(true)
		defer metrics.RetainExactSamples(false)
		resetHists(e)
	}
	p.before = readCounters(e)
	var diskBefore int64
	if sp.durable {
		if diskBefore, err = dirBytes(dir); err != nil {
			return nil, err
		}
	}
	cpu0, err := processCPU()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(dur)
	timed, end := drive(clients, func(int) bool { return !time.Now().Before(deadline) })
	p.start = start
	p.elapsed = end.Sub(start)
	cpu1, err := processCPU()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	p.timed = timed
	p.all.merge(timed)

	drain := time.Now()
	e.waitArchives()
	p.drainMS = ms(time.Since(drain))
	p.after = readCounters(e)
	if sp.durable {
		diskAfter, err := dirBytes(dir)
		if err != nil {
			return nil, err
		}
		if timed.edited > 0 {
			p.spaceAmp = float64(diskAfter-diskBefore) / float64(timed.edited)
		}
	}
	if traced {
		p.hist = histSamples(e)
		if p.traces, err = harvest(e, start); err != nil {
			return nil, err
		}
	}

	if p.all.badReads > 0 {
		p.problem("%d reads returned bytes that differ from the last acknowledged content", p.all.badReads)
	}
	if err := verifyLive(e, sh, p); err != nil {
		return nil, err
	}
	if !sp.coldStart {
		return p, nil
	}

	cfg := e.cfg
	e.sys.Crash()
	e, clients = nil, nil // let the dead deployment's memory go before the cold start
	runtime.GC()
	cold := time.Now()
	sys, err := datalinks.Open(datalinks.Config{Servers: []datalinks.ServerConfig{cfg}, LockTimeout: lockTimeout})
	if err != nil {
		return nil, fmt.Errorf("cold start: %w", err)
	}
	p.recoverS = time.Since(cold).Seconds()
	defer sys.Close()
	srv, err := sys.Internal().Server(serverName)
	if err != nil {
		return nil, err
	}
	return p, verifyCold(srv, sh, p)
}

// harvest collects the span trees of every trace whose root started in the
// timed phase, from every server's tracer.
func harvest(e *env, since time.Time) ([]*span, error) {
	var out []*span
	for _, s := range e.servers() {
		for _, tr := range s.Obs.Recent(0) {
			root, err := spanFromJSON(tr.JSON().Root)
			if err != nil {
				return nil, err
			}
			if !root.start.Before(since) {
				out = append(out, root)
			}
		}
	}
	return out, nil
}

// verifyLive checks every file of the running deployment against the shadow:
// content byte for byte, host doc_size, and one archived version per
// acknowledged update plus the linked original. A replicated deployment must
// also hold identical histories on the owner and every replica.
func verifyLive(e *env, sh *shadow, p *phase) error {
	rows, err := e.query(`SELECT id, doc_size FROM docs`)
	if err != nil {
		return fmt.Errorf("read doc_size: %w", err)
	}
	sizes := map[int64]int64{}
	for _, r := range rows.Data {
		id, _ := r[0].(int64)
		size, _ := r[1].(int64)
		sizes[id] = size
	}
	paths := make([]string, len(sh.data))
	for i := range sh.data {
		paths[i] = filePath(i)
		if sh.uncertain[i] {
			continue
		}
		if got := sizes[int64(i)]; got != int64(len(sh.data[i])) {
			p.problem("%s: host doc_size %d, file has %d bytes", paths[i], got, len(sh.data[i]))
		}
		srv, authority, err := e.owner(paths[i])
		if err != nil {
			return err
		}
		checkFile(p, paths[i], srv.Phys.ReadFile, len(srv.Archive.Versions(authority, paths[i])), sh, i)
	}
	if e.cl != nil {
		diverged, err := e.replicaDivergence(paths)
		if err != nil {
			return err
		}
		if diverged > 0 {
			p.problem("%d replica histories differ from their owner's", diverged)
		}
	}
	return nil
}

// verifyCold repeats the file checks on the cold-started system (the host
// database died with the process, so doc_size has nothing to compare with).
func verifyCold(srv *core.FileServer, sh *shadow, p *phase) error {
	p.coldPageIns = srv.Archive.Tier().PageIns // the materialization's reads
	if srv.Recovery == nil {
		return errors.New("cold start over used directories ran as a fresh boot")
	}
	if n := len(srv.Recovery.LostFiles); n > 0 {
		p.problem("cold start lost %d files: %v", n, srv.Recovery.LostFiles)
	}
	p.materialized = len(srv.Recovery.MaterializedFiles)
	p.replayedVersions = srv.Archive.Recovery().Versions
	for i := range sh.data {
		if sh.uncertain[i] {
			continue
		}
		path := filePath(i)
		checkFile(p, "after cold start "+path, srv.Phys.ReadFile, len(srv.Archive.Versions(serverName, path)), sh, i)
	}
	return nil
}

func checkFile(p *phase, label string, read func(string) ([]byte, error), versions int, sh *shadow, i int) {
	got, err := read(filePath(i))
	switch {
	case err != nil:
		p.problem("%s: %v", label, err)
	case !bytes.Equal(got, sh.data[i]):
		p.problem("%s: content differs from the last acknowledged update", label)
	}
	if want := 1 + sh.acked[i]; versions != want {
		p.problem("%s: %d archived versions, want %d", label, versions, want)
	}
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return nan
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
