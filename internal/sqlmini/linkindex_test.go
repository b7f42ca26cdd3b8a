package sqlmini

import (
	"testing"

	"datalinks/internal/datalink"
)

const linkTableDDL = `CREATE TABLE docs (id INT PRIMARY KEY, doc DATALINK MODE RDD RECOVERY YES, doc_size INT)`

func insertLinks(t *testing.T, db *DB, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		mustExec(t, db, `INSERT INTO docs VALUES (?, ?, NULL)`, Int(int64(i)), linkValue(i))
	}
}

func linkValue(i int) Value {
	return Link(datalink.Link{Server: "fs1", Path: "/d/f" + string(rune('a'+i))})
}

// requireLinkIndex asserts the DATALINK column is indexed and the index
// answers an equality lookup with exactly the matching row.
func requireLinkIndex(t *testing.T, db *DB, where string) {
	t.Helper()
	tbl, err := db.Table("docs")
	if err != nil {
		t.Fatal(err)
	}
	ci := tbl.ColIndex("doc")
	if !tbl.HasIndex(ci) {
		t.Fatalf("%s: DATALINK column not indexed", where)
	}
	if ids, ok := tbl.LookupIndex(ci, linkValue(2)); !ok || len(ids) != 1 || ids[0] != 2 {
		t.Fatalf("%s: index lookup = %v, %v; want [2]", where, ids, ok)
	}
}

func TestDatalinkColumnIndexedOnCreate(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, linkTableDDL)
	insertLinks(t, db, 4)
	requireLinkIndex(t, db, "after CREATE TABLE")
	tbl, _ := db.Table("docs")
	if tbl.HasIndex(tbl.ColIndex("doc_size")) {
		t.Fatal("non-DATALINK column indexed without CREATE INDEX")
	}

	// An explicit CREATE INDEX on the column is a no-op: nothing is logged,
	// so rolling it back cannot drop the automatic index.
	txn := db.Begin()
	before := txn.lastLSN
	if _, err := txn.Exec(`CREATE INDEX ON docs (doc)`); err != nil {
		t.Fatal(err)
	}
	if txn.lastLSN != before {
		t.Fatal("CREATE INDEX on an indexed DATALINK column was logged")
	}
	if err := txn.Abort(); err != nil {
		t.Fatal(err)
	}
	requireLinkIndex(t, db, "after an aborted CREATE INDEX")
}

func TestDatalinkIndexAfterRedoRecovery(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, linkTableDDL)
	insertLinks(t, db, 4)
	db2, rep := recoverDB(t, db)
	if rep.SnapshotUsed {
		t.Fatal("want a pure WAL-redo recovery")
	}
	requireLinkIndex(t, db2, "after WAL redo")
}

func TestDatalinkIndexAfterCheckpointRestore(t *testing.T) {
	t.Run("disk", func(t *testing.T) {
		dir := t.TempDir()
		db := diskDB(t, dir)
		mustExec(t, db, linkTableDDL)
		insertLinks(t, db, 4)
		if ok, err := db.Checkpoint(); err != nil || !ok {
			t.Fatalf("checkpoint: ok=%v err=%v", ok, err)
		}
		db2, rep := reopenDisk(t, db, dir)
		if !rep.SnapshotUsed || rep.Redone != 0 {
			t.Fatalf("want a snapshot-only restore, got %+v", rep)
		}
		requireLinkIndex(t, db2, "after disk checkpoint restore")
	})
	t.Run("embedded", func(t *testing.T) {
		db := testDB(t)
		mustExec(t, db, linkTableDDL)
		insertLinks(t, db, 4)
		if ok, err := db.Checkpoint(); err != nil || !ok {
			t.Fatalf("checkpoint: ok=%v err=%v", ok, err)
		}
		db2, rep := recoverDB(t, db)
		if !rep.SnapshotUsed || rep.Redone != 0 {
			t.Fatalf("want a snapshot-only restore, got %+v", rep)
		}
		requireLinkIndex(t, db2, "after embedded checkpoint restore")
	})
}
