package engine

import (
	"strings"
	"testing"
	"time"

	"datalinks/internal/archive"
	"datalinks/internal/datalink"
	"datalinks/internal/dlfm"
	"datalinks/internal/fs"
	"datalinks/internal/sqlmini"
	"datalinks/internal/token"
)

const owner fs.UID = 100

// rig wires a host DB + engine + one DLFM over a shared physical FS.
type rig struct {
	db   *sqlmini.DB
	eng  *Engine
	srv  *dlfm.Server
	phys *fs.FS
}

func newRig(t *testing.T) *rig {
	t.Helper()
	return newRigWith(t, sqlmini.Options{LockTimeout: 500 * time.Millisecond})
}

func newRigWith(t *testing.T, opts sqlmini.Options) *rig {
	t.Helper()
	db := sqlmini.NewDB(opts)
	eng := New(db, Options{})
	phys := fs.New()
	phys.MkdirAll("/d", fs.Cred{UID: fs.Root}, 0o777)
	key := []byte("shared-key")
	srv, err := dlfm.New(dlfm.Config{
		Name:     "fs1",
		Phys:     phys,
		Archive:  archive.New(0, nil),
		Host:     eng,
		TokenKey: key,
	})
	if err != nil {
		t.Fatalf("dlfm: %v", err)
	}
	eng.AttachFileServer(srv, key, 0)
	return &rig{db: db, eng: eng, srv: srv, phys: phys}
}

func (r *rig) seed(t *testing.T, path, content string) {
	t.Helper()
	if err := r.phys.WriteFile(path, []byte(content)); err != nil {
		t.Fatal(err)
	}
	ino, _ := r.phys.Lookup(path)
	r.phys.Chown(ino, fs.Cred{UID: fs.Root}, owner)
	r.phys.Chmod(ino, fs.Cred{UID: owner}, 0o644)
}

func TestInsertLinksDeleteUnlinks(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/f.bin", "x")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'))`)
	if !r.srv.IsLinked("/d/f.bin") {
		t.Fatal("insert did not link")
	}
	if len(r.eng.LinkedFiles()) != 1 {
		t.Fatalf("registry = %v", r.eng.LinkedFiles())
	}
	r.db.MustExec(`DELETE FROM t WHERE id = 1`)
	if r.srv.IsLinked("/d/f.bin") {
		t.Fatal("delete did not unlink")
	}
	if len(r.eng.LinkedFiles()) != 0 {
		t.Fatalf("registry after delete = %v", r.eng.LinkedFiles())
	}
}

func TestUpdateRelinks(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/a.bin", "a")
	r.seed(t, "/d/b.bin", "b")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/a.bin'))`)
	r.db.MustExec(`UPDATE t SET doc = DLVALUE('dlfs://fs1/d/b.bin') WHERE id = 1`)
	if r.srv.IsLinked("/d/a.bin") {
		t.Fatal("old link survived the update")
	}
	if !r.srv.IsLinked("/d/b.bin") {
		t.Fatal("new link missing after the update")
	}
}

func TestUpdateSameLinkIsNoop(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/a.bin", "a")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, note VARCHAR, doc DATALINK MODE RFD)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, 'x', DLVALUE('dlfs://fs1/d/a.bin'))`)
	links := r.eng.Metrics().Counter("engine.links").Value()
	// Updating an unrelated column must not unlink/relink.
	r.db.MustExec(`UPDATE t SET note = 'y' WHERE id = 1`)
	if got := r.eng.Metrics().Counter("engine.links").Value(); got != links {
		t.Fatalf("spurious link operations: %d -> %d", links, got)
	}
	if !r.srv.IsLinked("/d/a.bin") {
		t.Fatal("link lost")
	}
}

func TestLinkToUnknownServerFails(t *testing.T) {
	r := newRig(t)
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD)`)
	if _, err := r.db.Exec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://nowhere/d/f.bin'))`); err == nil {
		t.Fatal("link to unattached server accepted")
	}
}

func TestLinkMissingFileFailsStatement(t *testing.T) {
	r := newRig(t)
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD)`)
	if _, err := r.db.Exec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/ghost.bin'))`); err == nil {
		t.Fatal("link of missing file accepted")
	}
	rows, _ := r.db.Query(`SELECT COUNT(*) FROM t`)
	if rows.Data[0][0].I != 0 {
		t.Fatal("failed insert left a row")
	}
}

func TestNffStoresURLWithoutLinking(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/f.bin", "x")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE NFF)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'))`)
	if r.srv.IsLinked("/d/f.bin") {
		t.Fatal("nff should not link")
	}
	row, _ := r.db.QueryRow(`SELECT DLURLCOMPLETE(doc) FROM t WHERE id = 1`)
	if strings.Contains(row[0].S, token.Sep) {
		t.Fatal("nff got a token")
	}
}

func TestTokenIssuingRespectsModes(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/f.bin", "x")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFB)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'))`)
	// rfb: reads are FS-controlled -> no token in URL.
	row, err := r.db.QueryRow(`SELECT DLURLCOMPLETE(doc) FROM t WHERE id = 1`)
	if err != nil || strings.Contains(row[0].S, token.Sep) {
		t.Fatalf("rfb read URL = %v, %v", row, err)
	}
	// rfb: no write tokens.
	if _, err := r.db.Query(`SELECT DLURLCOMPLETEWRITE(doc) FROM t WHERE id = 1`); err == nil {
		t.Fatal("rfb issued a write token")
	}
}

func TestLinkedModeAndIssueToken(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/f.bin", "x")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES TOKEN 60)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'))`)
	l := datalink.Link{Server: "fs1", Path: "/d/f.bin"}
	mode, ok := r.eng.LinkedMode(l)
	if !ok || mode != datalink.RDD {
		t.Fatalf("linked mode = %v, %v", mode, ok)
	}
	tok, err := r.eng.IssueToken(l, token.Read)
	if err != nil || tok == "" {
		t.Fatalf("read token = %q, %v", tok, err)
	}
	// Token is valid at the DLFM authority.
	if _, err := r.srv.Authority().Validate(tok, "/d/f.bin"); err != nil {
		t.Fatalf("issued token rejected by DLFM: %v", err)
	}
	// Unlinked file: no token, no error.
	tok, err = r.eng.IssueToken(datalink.Link{Server: "fs1", Path: "/d/other"}, token.Read)
	if err != nil || tok != "" {
		t.Fatalf("unlinked token = %q, %v", tok, err)
	}
}

func TestRebuildRegistry(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/f.bin", "x")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'))`)
	// Blow the registry away and rebuild from table contents.
	r.eng.mu.Lock()
	r.eng.registry = make(map[string]registration)
	r.eng.mu.Unlock()
	if err := r.eng.RebuildRegistry(); err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	if len(r.eng.LinkedFiles()) != 1 {
		t.Fatalf("registry after rebuild = %v", r.eng.LinkedFiles())
	}
}

func TestMetaUpdateWritesCompanionColumns(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/f.bin", "x")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES, doc_size INT, doc_mtime TIMESTAMP)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'), NULL, NULL)`)
	mt := time.Unix(1_700_000_123, 0)
	sub := &noopXRM{}
	state, err := r.eng.MetaUpdate("fs1", "/d/f.bin", 4321, mt, sub)
	if err != nil {
		t.Fatalf("meta update: %v", err)
	}
	if state == 0 {
		t.Fatal("no state id")
	}
	if !sub.prepared || !sub.committed {
		t.Fatalf("sub-transaction not driven through 2PC: %+v", sub)
	}
	row, _ := r.db.QueryRow(`SELECT doc_size, doc_mtime FROM t WHERE id = 1`)
	if row[0].I != 4321 || !row[1].T.Equal(mt) {
		t.Fatalf("companion columns = %+v", row)
	}
}

type noopXRM struct{ prepared, committed, aborted bool }

func (n *noopXRM) XRMName() string         { return "noop" }
func (n *noopXRM) PrepareXRM(uint64) error { n.prepared = true; return nil }
func (n *noopXRM) CommitXRM(uint64) error  { n.committed = true; return nil }
func (n *noopXRM) AbortXRM(uint64) error   { n.aborted = true; return nil }

func TestBackupAndRestoreImage(t *testing.T) {
	r := newRig(t)
	r.seed(t, "/d/f.bin", "v0")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin'))`)
	img := r.eng.Backup()
	if img.StateID == 0 {
		t.Fatal("backup state id zero")
	}
	// Mutate after the backup.
	r.db.MustExec(`DELETE FROM t WHERE id = 1`)
	if r.srv.IsLinked("/d/f.bin") {
		t.Fatal("unlink failed")
	}
	// Restore the image: the row and the link come back.
	if err := r.eng.RestoreImage(img); err != nil {
		t.Fatalf("restore: %v", err)
	}
	rows, err := r.eng.DB().Query(`SELECT COUNT(*) FROM t`)
	if err != nil || rows.Data[0][0].I != 1 {
		t.Fatalf("restored rows = %v, %v", rows, err)
	}
	if !r.srv.IsLinked("/d/f.bin") {
		t.Fatal("link not re-established by restore")
	}
}

func TestMultiServerLinks(t *testing.T) {
	r := newRig(t)
	phys2 := fs.New()
	phys2.MkdirAll("/e", fs.Cred{UID: fs.Root}, 0o777)
	phys2.WriteFile("/e/g.bin", []byte("y"))
	srv2, err := dlfm.New(dlfm.Config{
		Name: "fs2", Phys: phys2, Archive: archive.New(0, nil), Host: r.eng, TokenKey: []byte("shared-key"),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.eng.AttachFileServer(srv2, []byte("shared-key"), 0)
	r.seed(t, "/d/f.bin", "x")
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFF)`)
	r.db.MustExec(`INSERT INTO t VALUES (1, DLVALUE('dlfs://fs1/d/f.bin')), (2, DLVALUE('dlfs://fs2/e/g.bin'))`)
	if !r.srv.IsLinked("/d/f.bin") || !srv2.IsLinked("/e/g.bin") {
		t.Fatal("multi-server links incomplete")
	}
	// One transaction spanning both servers rolls back everywhere.
	txn := r.db.Begin()
	if _, err := txn.Exec(`DELETE FROM t`); err != nil {
		t.Fatalf("delete: %v", err)
	}
	txn.Abort()
	if !r.srv.IsLinked("/d/f.bin") || !srv2.IsLinked("/e/g.bin") {
		t.Fatal("abort did not restore links on both servers")
	}
}
