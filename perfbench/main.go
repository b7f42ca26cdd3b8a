// Command perfbench is the repository's benchmark. It drives closed-loop
// client sessions through the public datalinks session API, with no
// simulated upcall or archive latency, against one of three workloads, checks
// every file against a shadow of its acknowledged updates, and prints one
// JSON result line last.
//
//	bash perfbench/run.sh --workload commit-small --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of an untraced
// run. With --trace 1 the timed phase is made twice, each half as long,
// untraced and then with span tracing on, and the result carries the per-layer metrics of the traced run
// (and the tracing overhead between the two). Human-readable tables, with
// sample counts and n/a for layers a workload does not reach, precede the
// JSON line.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"time"
)

var nan = math.NaN()

// setupRuns is how many times a --trace 0 run sets the deployment up; setup_s
// is the median of their process CPU times.
const setupRuns = 7

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: commit-small, edit-large or read-mostly-net")
	seed := flag.Int64("seed", 1, "seed of the generated files and operations")
	seconds := flag.Float64("seconds", 10, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	tmp := flag.String("tmp", ".bench_build/tmp", "directory for the runs' repository and archive directories")
	flag.Parse()
	sp, err := findSpec(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: bad arguments:", err)
		flag.Usage()
		return 2
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dur := time.Duration(*seconds * float64(time.Second))

	setups := setupRuns
	if *trace == 1 {
		// The per-layer run makes an untraced and a traced phase of half
		// the length each, and skips setup_s, an end-to-end metric.
		setups = 1
		dur /= 2
	}
	base, err := runPhase(sp, *seed, dur, false, setups, *tmp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	phases := []*phase{base}
	var out []metric
	if *trace == 0 {
		out = endToEnd(base)
		printTable(sp.name+": end to end", out)
	} else {
		traced, err := runPhase(sp, *seed, dur, true, setups, *tmp)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		phases = append(phases, traced)
		out = perLayer(sp, base, traced)
		printTable(sp.name+": per layer (traced run)", out)
	}

	res := result{Correct: true, Metrics: map[string]value{}}
	for _, p := range phases {
		res.Attempted += p.all.attempted
		res.Failed += p.all.failed
		if p.all.firstErr != nil {
			fmt.Fprintln(os.Stderr, "perfbench: first failed operation:", p.all.firstErr)
		}
		for _, msg := range p.problems {
			fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
			res.Correct = false
		}
	}
	for _, m := range out {
		if !m.reported {
			continue
		}
		if m.na {
			fmt.Fprintf(os.Stderr, "perfbench: %s has fewer than %d samples beyond its percentile (n=%d)\n", m.name, minTail, m.n)
		}
		if math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s was not measured on %s\n", m.name, sp.name)
			return 1
		}
		res.Metrics[m.name] = value{Value: m.v, Unit: m.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// metric is one row of a table. Rows marked reported are the metrics
// BENCHMARK.json lists and the JSON line carries on every workload. The
// others are printed only: they apply to some workloads only (n/a
// elsewhere), or swing too far between runs on a shared machine to gate a
// change on (wall-clock rates and the p99 move with CPU stolen by other
// guests).
type metric struct {
	name, unit string
	v          float64
	n          int // samples behind a percentile or rate; 0 for counts
	pct        bool
	na         bool // the layer does not run here, or too few samples
	reported   bool
}

func printTable(title string, ms []metric) {
	fmt.Printf("%s\n%-36s %14s %-6s %8s\n", title, "metric", "value", "unit", "samples")
	for _, m := range ms {
		v := fmt.Sprintf("%.4g", m.v)
		if m.na {
			v = "n/a"
		}
		n := ""
		if m.n > 0 {
			n = fmt.Sprint(m.n)
		}
		fmt.Printf("%-36s %14s %-6s %8s\n", m.name, v, m.unit, n)
	}
}

// metricSet accumulates the rows of one table.
type metricSet struct{ rows []metric }

func (s *metricSet) add(name, unit string, v float64, reported bool) {
	s.rows = append(s.rows, metric{name: name, unit: unit, v: v, reported: reported, na: math.IsNaN(v)})
}

// pct adds the q-quantile of samples as one row.
func (s *metricSet) pct(name, unit string, samples []float64, q float64, reported bool) {
	m := metric{name: name, unit: unit, n: len(samples), pct: true, reported: reported}
	var ok bool
	m.v, ok = percentile(samples, q)
	m.na = !ok
	if len(samples) == 0 {
		m.v = nan
	}
	s.rows = append(s.rows, m)
}

// p50p99 adds prefix.p50 and prefix.p99.
func (s *metricSet) p50p99(prefix, unit string, samples []float64, reported bool) {
	s.pct(prefix+".p50", unit, samples, 0.50, reported)
	s.pct(prefix+".p99", unit, samples, 0.99, reported)
}

// na adds a row for a layer the workload does not run.
func (s *metricSet) na(unit string, names ...string) {
	for _, n := range names {
		s.rows = append(s.rows, metric{name: n, unit: unit, v: nan, na: true})
	}
}

// opRate is the median, over ten equal windows of the timed phase, of the
// operations completed per second in each window: a stall of a few seconds on
// a shared machine moves it less than it moves the whole-phase mean.
func opRate(p *phase) float64 {
	const windows = 10
	w := p.elapsed / windows
	counts := make([]float64, windows)
	for _, t := range p.timed.done {
		if i := int(t.Sub(p.start) / w); i >= 0 && i < windows {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= w.Seconds()
	}
	return median(counts)
}

// classRate is the rate of one class of operations: the windowed rate of all
// operations times the class's share of the whole phase. Per-window counts of
// a rare class (a tenth of read-mostly-net) would be too few to take a
// median of.
func classRate(p *phase, n int) float64 {
	return opRate(p) * float64(n) / float64(max(p.timed.updates+p.timed.reads, 1))
}

func endToEnd(p *phase) []metric {
	var s metricSet
	t := p.timed
	s.add("update_per_s", "1/s", classRate(p, t.updates), false)
	s.pct("update_p50_ms", "ms", t.t.update, 0.50, true)
	s.pct("update_p99_ms", "ms", t.t.update, 0.99, false)
	s.add("op_per_s", "1/s", opRate(p), false)
	s.add("cpu_us_per_op", "us", us(p.cpu)/float64(max(t.updates+t.reads, 1)), true)
	if t.reads > 0 {
		s.add("read_per_s", "1/s", classRate(p, t.reads), false)
		s.pct("read_p50_ms", "ms", t.t.read, 0.50, false)
		s.pct("read_p99_ms", "ms", t.t.read, 0.99, false)
	} else {
		s.na("1/s", "read_per_s")
		s.na("ms", "read_p50_ms", "read_p99_ms")
	}
	s.add("fail_ratio", "ratio", float64(t.failed)/float64(max(t.attempted, 1)), false)
	s.add("setup_s", "s", median(p.setupCPUS), true)
	s.add("setup_wall_s", "s", median(p.setupWallS), false)
	s.add("recover_s", "s", p.recoverS, false)
	s.add("space_amp", "ratio", p.spaceAmp, false)
	s.add("rss_ready_mb", "MB", p.rssReadyMB, true)
	rss, err := peakRSSMB()
	if err != nil {
		rss = nan
	}
	s.add("rss_peak_mb", "MB", rss, false)
	return s.rows
}

// spanSamples returns, in µs, the duration (or self time) of every span of
// the given name in the harvested traces.
func spanSamples(traces []*span, name string, self bool) []float64 {
	var out []float64
	for _, root := range traces {
		walk(root, func(s *span) {
			if s.name != name {
				return
			}
			d := s.dur
			if self {
				d = selfTime(s)
			}
			out = append(out, us(d))
		})
	}
	return out
}

func perLayer(sp *spec, base, p *phase) []metric {
	var s metricSet
	t := p.timed
	b, a := p.before, p.after
	ops := t.updates + t.reads
	perUpd := func(before, after int64) float64 {
		v, ok := perUnit(before, after, t.updates)
		if !ok {
			return nan
		}
		return v
	}

	s.p50p99("core.open_write_us", "us", t.t.openWrite, true)
	s.p50p99("core.commit_us", "us", t.t.commit, true)
	s.pct("core.write_us.p50", "us", t.t.write, 0.50, true)
	if t.reads > 0 {
		s.p50p99("core.open_read_us", "us", t.t.openRead, false)
		s.pct("core.read_us.p50", "us", t.t.readCall, 0.50, false)
	} else {
		s.na("us", "core.open_read_us.p50", "core.open_read_us.p99", "core.read_us.p50")
	}
	s.p50p99("engine.token_us", "us", t.t.token, true)
	s.p50p99("engine.2pc_us", "us", spanSamples(p.traces, "2pc", false), true)

	s.add("sqlmini.lock_waits_per_update", "count", perUpd(b.lockWaits, a.lockWaits), true)
	s.add("sqlmini.lock_wait_us_per_update", "us", perUpd(b.lockWaitNS, a.lockWaitNS)/1e3, true)
	s.add("wal.records_per_update", "count", perUpd(b.walRecords, a.walRecords), true)
	s.add("wal.flushes_per_update", "count", perUpd(b.walFlushes, a.walFlushes), true)

	s.p50p99("upcall.write_open_us", "us", p.hist["upcall.latency.write_open"], true)
	s.p50p99("upcall.close_us", "us", p.hist["upcall.latency.close"], true)
	if t.reads > 0 {
		s.p50p99("upcall.read_open_us", "us", p.hist["upcall.latency.read_open"], false)
	} else {
		s.na("us", "upcall.read_open_us.p50", "upcall.read_open_us.p99")
	}
	calls, _ := perUnit(b.upcalls, a.upcalls, ops)
	s.add("upcall.calls_per_op", "count", calls, true)
	s.rows[len(s.rows)-1].n = ops
	if sp.cluster {
		s.add("upcall.retries", "count", float64(a.retries-b.retries), false)
		s.p50p99("upcall.wire_self_us", "us", spanSamples(p.traces, "wire", true), false)
	} else {
		s.na("count", "upcall.retries")
		s.na("us", "upcall.wire_self_us.p50", "upcall.wire_self_us.p99")
	}

	s.p50p99("dlfm.self_us", "us", spanSamples(p.traces, "dlfm", true), true)
	if sp.coldStart {
		s.add("dlfm.materialized_files", "count", float64(p.materialized), false)
	} else {
		s.na("count", "dlfm.materialized_files")
	}

	s.p50p99("archive.job_us", "us", spanSamples(p.traces, "archive", false), true)
	s.p50p99("archive.barrier_us", "us", spanSamples(p.traces, "archive.barrier", false), true)
	s.add("archive.new_bytes_per_update", "bytes", perUpd(b.archNew, a.archNew), true)
	newB, dedupB := a.archNew-b.archNew, a.archDeduped-b.archDeduped
	s.add("archive.dedup_ratio", "ratio", float64(dedupB)/float64(max(newB+dedupB, 1)), true)
	s.add("archive.drain_ms", "ms", p.drainMS, true)

	s.add("chunkdisk.spills_per_update", "count", perUpd(b.tier.Spills, a.tier.Spills), true)
	s.add("chunkdisk.pack_appends_per_update", "count", perUpd(b.tier.PackAppends, a.tier.PackAppends), true)
	s.add("chunkdisk.files_created_per_update", "count", perUpd(b.tier.FilesCreated, a.tier.FilesCreated), true)
	// Page-ins happen when a version's chunks are read back from disk: at a
	// cold start's materialization, not while edits only write.
	s.add("chunkdisk.page_ins", "count", float64(a.tier.PageIns-b.tier.PageIns+p.coldPageIns), true)
	s.add("chunkdisk.evictions", "count", float64(a.tier.Evictions-b.tier.Evictions), true)
	s.add("chunkdisk.resident_mb", "MB", float64(a.tier.ResidentBytes)/mib, true)
	s.add("chunkdisk.compactions", "count", float64(a.tier.PackCompactions-b.tier.PackCompactions), false)

	if sp.durable {
		s.add("catalog.fsyncs_per_update", "count", perUpd(b.catalogFsyncs, a.catalogFsyncs), false)
	} else {
		s.na("count", "catalog.fsyncs_per_update")
	}
	if sp.coldStart {
		s.add("catalog.replayed_versions", "count", float64(p.replayedVersions), false)
	} else {
		s.na("count", "catalog.replayed_versions")
	}
	// Every workload runs flush policy none: on a shared disk the fsync
	// round's latency swings too widely for a gated figure, so no workload
	// reaches the fsync layer.
	s.na("us", "fsyncer.fsync_us.p50", "fsyncer.fsync_us.p99")
	s.na("count", "fsyncer.updates_per_fsync")
	if sp.cluster {
		s.p50p99("repl.ship_us", "us", p.hist["repl.ship"], false)
		s.add("repl.quorum_waits", "count", float64(a.replQuorumWaits-b.replQuorumWaits), false)
		s.add("repl.lag_versions", "count", float64(a.replLag-b.replLag), false)
	} else {
		s.na("us", "repl.ship_us.p50", "repl.ship_us.p99")
		s.na("count", "repl.quorum_waits", "repl.lag_versions")
	}

	s.add("runtime.alloc_kb_per_op", "KiB", float64(a.allocBytes-b.allocBytes)/1024/float64(max(ops, 1)), true)
	s.rows[len(s.rows)-1].n = ops
	s.add("runtime.gc_cpu_frac", "ratio", (a.gcCPU-b.gcCPU)/(a.allCPU-b.allCPU), true)
	s.add("runtime.live_heap_kb_per_update", "KiB", (float64(a.liveHeap)-float64(b.liveHeap))/1024/float64(max(t.updates, 1)), true)
	s.add("obs.trace_overhead", "ratio", 1-opRate(p)/opRate(base), true)

	// Other counts and ratios carry the number of acknowledged updates of
	// the run, the base of the per-update ones.
	for i := range s.rows {
		if r := &s.rows[i]; !r.pct && !r.na && r.n == 0 {
			r.n = t.updates
		}
	}
	return s.rows
}
