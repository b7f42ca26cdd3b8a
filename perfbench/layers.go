package main

import (
	"os"
	"path/filepath"
	rtmetrics "runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"

	"datalinks/internal/chunkdisk"
	"datalinks/internal/core"
	"datalinks/internal/metrics"
	"datalinks/internal/sqlmini"
)

// counters is one reading of every cumulative counter the per-layer metrics
// are taken from, summed over the host database and every file server.
// Per-layer figures are differences of two readings.
type counters struct {
	lockWaits, lockWaitNS  int64 // sqlmini lock managers
	walRecords, walFlushes int64 // host and repository WALs
	upcalls, retries       int64
	archNew, archDeduped   int64
	catalogFsyncs          int64
	tier                   chunkdisk.Stats
	replQuorumWaits        int64
	replLag                int64
	allocBytes, liveHeap   uint64
	gcCPU, allCPU          float64 // seconds
}

func (c *counters) addDB(db *sqlmini.DB) {
	waits, wait, _ := db.LockManager().ContentionStats()
	c.lockWaits += waits
	c.lockWaitNS += int64(wait)
	c.walRecords += int64(db.Log().TailLSN())
	c.walFlushes += db.Log().FlushCount()
}

func (c *counters) addServer(s *core.FileServer) {
	c.addDB(s.DLFM.Repo())
	c.upcalls += s.Transport.Calls()
	if cl := s.UpcallClient(); cl != nil {
		c.retries += cl.Metrics().Counter("upcall.retries").Value()
	}
	reg := s.DLFM.Metrics() // shared by the DLFM, its archive and catalog
	c.archNew += reg.Counter("dlfm.archive.bytes_new").Value()
	c.archDeduped += reg.Counter("dlfm.archive.bytes_deduped").Value()
	c.catalogFsyncs += reg.Counter("catalog.fsyncs").Value()
	c.replQuorumWaits += reg.Counter("repl.quorum_waits").Value()
	c.replLag += reg.Counter("repl.lag_versions").Value()
	t := s.Archive.Tier()
	c.tier.Spills += t.Spills
	c.tier.PageIns += t.PageIns
	c.tier.Evictions += t.Evictions
	c.tier.ResidentBytes += t.ResidentBytes
	c.tier.PackAppends += t.PackAppends
	c.tier.PackCompactions += t.PackCompactions
	c.tier.FilesCreated += t.FilesCreated
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/live:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readCounters(e *env) counters {
	var c counters
	c.addDB(e.hostDB())
	for _, s := range e.servers() {
		c.addServer(s)
	}
	rs := make([]rtmetrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		rs[i].Name = name
	}
	rtmetrics.Read(rs)
	c.allocBytes = rs[0].Value.Uint64()
	c.liveHeap = rs[1].Value.Uint64()
	c.gcCPU = rs[2].Value.Float64()
	c.allCPU = rs[3].Value.Float64()
	return c
}

// hist names one of the program's own latency histograms the traced run
// reads, and the per-server registry that holds it.
type hist struct {
	name string
	reg  func(*core.FileServer) *metrics.Registry
}

func transportReg(s *core.FileServer) *metrics.Registry { return s.Transport.Metrics() }
func dlfmReg(s *core.FileServer) *metrics.Registry      { return s.DLFM.Metrics() }

// hists are the upcall transport's per-op latencies and the replication ship
// time.
var hists = []hist{
	{"upcall.latency.write_open", transportReg},
	{"upcall.latency.close", transportReg},
	{"upcall.latency.read_open", transportReg},
	{"repl.ship", dlfmReg},
}

// resetHists clears the histograms read at the end of a traced phase, so
// they hold that phase's samples only.
func resetHists(e *env) {
	for _, s := range e.servers() {
		for _, h := range hists {
			h.reg(s).Histogram(h.name).Reset()
		}
	}
}

// histSamples merges each histogram's raw samples across servers, in µs.
func histSamples(e *env) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range e.servers() {
		for _, h := range hists {
			for _, d := range h.reg(s).Histogram(h.name).Samples() {
				out[h.name] = append(out[h.name], us(d))
			}
		}
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			if os.IsNotExist(err) { // a temp file renamed away mid-walk
				return nil
			}
			return err
		}
		total += info.Size()
		return nil
	})
	return total, err
}

// processCPU is the user and system CPU time the process has used. It does
// not count time the hypervisor gave the machine's CPUs to other guests.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// peakRSSMB reads the process's peak resident set so far from /proc.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, os.ErrNotExist
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
