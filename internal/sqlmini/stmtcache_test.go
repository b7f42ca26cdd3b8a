package sqlmini

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func cachedStmts(db *DB) int {
	db.stmts.mu.RLock()
	defer db.stmts.mu.RUnlock()
	return len(db.stmts.m)
}

// TestStmtCacheConcurrentSharedStatement runs one cached statement text from
// many goroutines with different arguments (run it under -race): the shared
// AST must not be written by execution, and every result must equal what a
// freshly parsed statement returns.
func TestStmtCacheConcurrentSharedStatement(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, grp INT, v VARCHAR)`)
	for i := 0; i < 64; i++ {
		mustExec(t, db, `INSERT INTO t VALUES (?, ?, ?)`, Int(int64(i)), Int(int64(i%8)), Str(fmt.Sprint("v", i)))
	}
	const query = `SELECT id, v || '!' AS w FROM t WHERE grp = ? AND id >= ? ORDER BY id`
	fresh, err := Parse(query)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Rows, 8)
	for g := range want {
		txn := db.Begin()
		want[g], err = txn.execSelect(fresh.(*SelectStmt), []Value{Int(int64(g)), Int(int64(g))})
		if err != nil {
			t.Fatal(err)
		}
		txn.Commit()
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				got, err := db.Query(query, Int(int64(g)), Int(int64(g)))
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(got, want[g]) {
					errs <- fmt.Errorf("group %d: cached result %v, uncached %v", g, got.Data, want[g].Data)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := cachedStmts(db); n < 1 || n > 8 {
		t.Fatalf("cache holds %d statements after one hot text", n)
	}
}

// TestStmtCacheBounded feeds many distinct literal statements: the cache
// stops growing at its bound and still answers correctly.
func TestStmtCacheBounded(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	for i := 0; i < 3*stmtCacheSize; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, i*2))
		if n := cachedStmts(db); n > stmtCacheSize {
			t.Fatalf("cache grew to %d entries, bound %d", n, stmtCacheSize)
		}
	}
	if n := cachedStmts(db); n != stmtCacheSize {
		t.Fatalf("cache holds %d entries after %d distinct statements, want the bound %d", n, 3*stmtCacheSize, stmtCacheSize)
	}
	row, err := db.QueryRow(`SELECT v FROM t WHERE id = 5`)
	if err != nil || row[0].I != 10 {
		t.Fatalf("lookup after eviction churn = %v, %v", row, err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (`); err == nil {
		t.Fatal("bad SQL accepted")
	}
}
