package main

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"datalinks"
	"datalinks/internal/core"
	"datalinks/internal/sqlmini"
)

// opener is what a workload session needs from the public session API; the
// single-system and the cluster sessions both provide it.
type opener interface {
	OpenRead(url string) (*datalinks.File, error)
	OpenWrite(url string) (*datalinks.File, error)
}

// env is one running deployment under test: a single-server System or a
// replicated Cluster, reached only through the public API for the measured
// operations and through the core handles for counters and verification.
type env struct {
	sys *datalinks.System
	cl  *datalinks.Cluster
	cfg datalinks.ServerConfig // the single server's config (System only)
}

const (
	serverName = "fs1"
	benchUID   = 100
)

func (e *env) queryString(sql string, args ...any) (string, error) {
	if e.cl != nil {
		return e.cl.QueryString(sql, args...)
	}
	return e.sys.QueryString(sql, args...)
}

func (e *env) query(sql string, args ...any) (*datalinks.Rows, error) {
	if e.cl != nil {
		return e.cl.Query(sql, args...)
	}
	return e.sys.Query(sql, args...)
}

func (e *env) exec(sql string, args ...any) error {
	var err error
	if e.cl != nil {
		_, err = e.cl.Exec(sql, args...)
	} else {
		_, err = e.sys.Exec(sql, args...)
	}
	return err
}

func (e *env) session() opener {
	if e.cl != nil {
		return e.cl.Session(benchUID)
	}
	return e.sys.Session(benchUID)
}

func (e *env) url(path string) string {
	if e.cl != nil {
		return e.cl.URL(path)
	}
	return "dlfs://" + serverName + path
}

func (e *env) seedFile(path string, content []byte) error {
	if e.cl != nil {
		return e.cl.SeedFile(path, content, benchUID)
	}
	srv, err := e.sys.FileServer(serverName)
	if err != nil {
		return err
	}
	return srv.SeedFile(path, content, benchUID)
}

// servers lists every file-server stack of the deployment.
func (e *env) servers() []*core.FileServer {
	if e.cl != nil {
		var out []*core.FileServer
		for _, id := range e.cl.Members() {
			if m, err := e.cl.Internal().Member(id); err == nil {
				out = append(out, m)
			}
		}
		return out
	}
	srv, err := e.sys.Internal().Server(serverName)
	if err != nil {
		return nil
	}
	return []*core.FileServer{srv}
}

func (e *env) hostDB() *sqlmini.DB {
	if e.cl != nil {
		return e.cl.Internal().DB
	}
	return e.sys.Internal().DB
}

// owner returns the stack that serves path and the authority its archive
// history is keyed under.
func (e *env) owner(path string) (*core.FileServer, string, error) {
	if e.cl != nil {
		id, err := e.cl.Owner(path)
		if err != nil {
			return nil, "", err
		}
		m, err := e.cl.Internal().Member(id)
		return m, e.cl.Authority(), err
	}
	srv, err := e.sys.Internal().Server(serverName)
	return srv, serverName, err
}

func (e *env) waitArchives() {
	if e.cl != nil {
		e.cl.WaitArchives()
		return
	}
	for _, s := range e.servers() {
		s.DLFM.WaitArchives()
	}
}

func (e *env) close() {
	if e.cl != nil {
		e.cl.Close()
		return
	}
	e.sys.Close()
}

// historyDigest hashes every archived version of path held by one member.
func historyDigest(m *core.FileServer, authority, path string) string {
	h := sha256.New()
	for _, v := range m.Archive.Versions(authority, path) {
		fmt.Fprintf(h, "%d:%d:", v.Version, len(v.Content()))
		h.Write(v.Content())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// replicaDivergence flushes replication and counts paths whose history on
// any replica differs from the owner's.
func (e *env) replicaDivergence(paths []string) (int, error) {
	if err := e.cl.FlushReplication(); err != nil {
		return 0, fmt.Errorf("flush replication: %w", err)
	}
	diverged := 0
	for _, p := range paths {
		set := e.cl.ReplicaSet(p)
		if len(set) == 0 {
			return 0, errors.New("no replica set for " + p)
		}
		var want string
		for i, id := range set {
			m, err := e.cl.Internal().Member(id)
			if err != nil {
				return 0, err
			}
			d := historyDigest(m, e.cl.Authority(), p)
			if i == 0 {
				want = d
			} else if d != want {
				diverged++
			}
		}
	}
	return diverged, nil
}
