package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"datalinks"
	"datalinks/internal/upcall"
)

const (
	kib = 1 << 10
	mib = 1 << 20

	// sessions is the number of closed-loop client sessions of every
	// workload, one per CPU of the two-CPU machines the benchmark targets.
	sessions = 2
	// chunk is the extent chunk size; edit-large aligns its edits to it.
	chunk = 64 * kib
)

// op is one operation a session drives: an update (edits applied in one
// open..close transaction) or a ranged read.
type op struct {
	update bool
	file   int
	edits  []edit
	off, n int64 // read range
}

type edit struct {
	off  int64
	data []byte
}

// spec describes one workload. Each session draws its operations from its
// own generator, seeded from the run's seed and the session index, so the
// same seed replays the same inputs.
type spec struct {
	name     string
	files    int
	fileSize int
	// durable workloads keep RepoDir and ArchiveDir on disk.
	durable bool
	// coldStart crashes the process state after the timed phase and
	// cold-starts a new system over the same directories.
	coldStart bool
	cluster   bool
	// server returns the server config for a setup under dir.
	server func(dir string, traced bool) datalinks.ServerConfig
	// gen returns session s's operation generator: it draws the session's
	// k-th operation from rng.
	gen func(sp *spec, rng *rand.Rand, s int) func(k int) op
}

func randBytes(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

// Wide waits keep a slow round from being refused: a workload must not fail
// operations, it must show them slow.
const (
	openWait    = 30 * time.Second
	lockTimeout = 30 * time.Second
	traceCap    = 32768
)

var specs = []*spec{
	{
		// Per-commit control path: host SQL, lock manager, repository SQL
		// and WAL, 2PC. The archive stores one small chunk per commit and
		// nothing crosses a socket; disjoint files expose hidden
		// serialization between the two sessions.
		name: "commit-small", files: 512, fileSize: 4 * kib, durable: true,
		server: func(dir string, traced bool) datalinks.ServerConfig {
			return datalinks.ServerConfig{
				Name: serverName, OpenWait: openWait,
				RepoDir: filepath.Join(dir, "repo"), ArchiveDir: filepath.Join(dir, "archive"),
				Trace: traced, TraceCapacity: traceCap,
			}
		},
		gen: func(sp *spec, rng *rand.Rand, s int) func(k int) op {
			own := sp.files / sessions // disjoint across sessions
			return func(k int) op {
				return op{update: true, file: s*own + k%own,
					edits: []edit{{off: rng.Int63n(int64(sp.fileSize) - 256 + 1), data: randBytes(rng, 256)}}}
			}
		},
	},
	{
		// Data plane: extent COW, archive delta manifests, chunkdisk packs
		// and LRU (working set 8x the archive cache) and the catalog; reads
		// run beside writes and the cold start replays catalog and WAL.
		name: "edit-large", files: 8, fileSize: 16 * mib, durable: true, coldStart: true,
		server: func(dir string, traced bool) datalinks.ServerConfig {
			return datalinks.ServerConfig{
				Name: serverName, OpenWait: openWait,
				RepoDir:             filepath.Join(dir, "repo"),
				ArchiveDir:          filepath.Join(dir, "archive"),
				ArchiveMemoryBudget: 16 * mib,
				Trace:               traced, TraceCapacity: traceCap,
			}
		},
		gen: func(sp *spec, rng *rand.Rand, s int) func(k int) op {
			if s == 0 { // the writer: files round-robin, four chunk-aligned edits
				return func(k int) op {
					o := op{update: true, file: k % sp.files}
					for i := 0; i < 4; i++ {
						o.edits = append(o.edits, edit{off: int64(rng.Intn(sp.fileSize/chunk)) * chunk, data: randBytes(rng, 4*kib)})
					}
					return o
				}
			}
			return func(int) op { // the reader
				return op{file: rng.Intn(sp.files), off: rng.Int63n(int64(sp.fileSize) - 64*kib + 1), n: 64 * kib}
			}
		},
	},
	{
		// Serialization: every access makes two gob-framed TCP upcalls and
		// every update ships to two replicas; reads and writes meet on hot
		// files while the archive and fsync do almost nothing.
		name: "read-mostly-net", files: 256, fileSize: 16 * kib, cluster: true,
		server: func(dir string, traced bool) datalinks.ServerConfig {
			return datalinks.ServerConfig{
				OpenWait: openWait, TCPUpcalls: true,
				UpcallNet: &upcall.NetConfig{Client: upcall.ClientConfig{PoolSize: 2}},
				Trace:     traced, TraceCapacity: traceCap,
			}
		},
		gen: func(sp *spec, rng *rand.Rand, s int) func(k int) op {
			z := rand.NewZipf(rng, 1.1, 1, uint64(sp.files-1))
			size := int64(sp.fileSize)
			return func(int) op {
				f := int(z.Uint64())
				if rng.Intn(10) == 0 {
					return op{update: true, file: f,
						edits: []edit{{off: rng.Int63n(size - 256 + 1), data: randBytes(rng, 256)}}}
				}
				return op{file: f, off: rng.Int63n(size - 4*kib + 1), n: 4 * kib}
			}
		},
	},
}

func findSpec(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func filePath(i int) string { return fmt.Sprintf("/bench/f%04d.bin", i) }

// fileContent is file i's seeded initial content.
func fileContent(seed int64, i, size int) []byte {
	return randBytes(rand.New(rand.NewSource(seed*7919+int64(i))), size)
}
