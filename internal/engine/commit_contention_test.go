package engine

import (
	"fmt"
	"testing"
	"time"

	"datalinks/internal/metrics"
	"datalinks/internal/sqlmini"
)

// heldXRM parks its host transaction in the 2PC prepare phase, with every
// row lock the transaction took still held, until released.
type heldXRM struct {
	noopXRM
	entered, release chan struct{}
}

func (h *heldXRM) PrepareXRM(uint64) error {
	close(h.entered)
	<-h.release
	return nil
}

// TestDisjointFileCommitsNeverWait is the no-hidden-serialization gate: a
// file commit updates its host row through `WHERE <datalink col> = ?`, and
// two sessions committing different files must not touch each other's rows.
// Session A is held inside its commit while session B commits a disjoint
// file; B must finish without a single lock-manager wait.
func TestDisjointFileCommitsNeverWait(t *testing.T) {
	reg := metrics.NewRegistry()
	r := newRigWith(t, sqlmini.Options{LockTimeout: 2 * time.Second, Metrics: reg})
	r.db.MustExec(`CREATE TABLE t (id INT PRIMARY KEY, doc DATALINK MODE RFD RECOVERY YES, doc_size INT, doc_mtime TIMESTAMP)`)
	for i := 0; i < 4; i++ {
		path := fmt.Sprintf("/d/f%d.bin", i)
		r.seed(t, path, "x")
		r.db.MustExec(fmt.Sprintf(`INSERT INTO t VALUES (%d, DLVALUE('dlfs://fs1%s'), NULL, NULL)`, i, path))
	}
	waits := reg.Counter("sqlmini.lock.waits")
	before := waits.Value()
	mt := time.Unix(1_700_000_000, 0)

	a := &heldXRM{entered: make(chan struct{}), release: make(chan struct{})}
	errA := make(chan error, 1)
	go func() {
		_, err := r.eng.MetaUpdate("fs1", "/d/f0.bin", 100, mt, a)
		errA <- err
	}()
	<-a.entered
	_, errB := r.eng.MetaUpdate("fs1", "/d/f1.bin", 111, mt, &noopXRM{})
	close(a.release)
	if err := <-errA; err != nil {
		t.Fatalf("session A commit: %v", err)
	}
	if errB != nil {
		t.Fatalf("session B commit on a disjoint file: %v", errB)
	}
	if n := waits.Value() - before; n != 0 {
		t.Fatalf("disjoint file commits recorded %d lock waits, want 0", n)
	}
	for id, want := range map[int]int64{0: 100, 1: 111} {
		row, err := r.db.QueryRow(fmt.Sprintf(`SELECT doc_size FROM t WHERE id = %d`, id))
		if err != nil || row[0].I != want {
			t.Fatalf("row %d doc_size = %v (%v), want %d", id, row, err, want)
		}
	}
}
