package archive

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"datalinks/internal/catalog"
	"datalinks/internal/extent"
)

// multiVersionContent builds version v of a deterministic multi-chunk file:
// 3 chunks + tail, with only chunk 1 varying per version — so consecutive
// versions share most blobs and a handoff should dedup them.
func multiVersionContent(v int) []byte {
	buf := make([]byte, 3*extent.ChunkSize+100)
	for i := range buf {
		buf[i] = byte(i)
	}
	copy(buf[extent.ChunkSize:], []byte(fmt.Sprintf("version-%d", v)))
	return buf
}

// exportAll exports a whole history: ExportDelta from base -1.
func exportAll(t *testing.T, s *Store, path string) []catalog.PutRec {
	t.Helper()
	recs, err := s.ExportDelta("auth", path, -1)
	if err != nil {
		t.Fatalf("export %s: %v", path, err)
	}
	return recs
}

func TestHandoffRoundTrip(t *testing.T) {
	src := New(0, nil)
	for v := 0; v < 5; v++ {
		if err := src.Put("auth", "/f", Version(v), uint64(10+v), multiVersionContent(v)); err != nil {
			t.Fatalf("put v%d: %v", v, err)
		}
	}
	recs := exportAll(t, src, "/f")
	if len(recs) != 5 {
		t.Fatalf("exported %d recs, want 5", len(recs))
	}

	dst := New(0, nil)
	st, err := dst.ImportDelta("auth", "/f", -1, recs, src.FetchBlob)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if st.Versions != 5 {
		t.Fatalf("imported %d versions, want 5", st.Versions)
	}
	// A path with no history exports nothing, without error.
	if none := exportAll(t, src, "/missing"); len(none) != 0 {
		t.Fatalf("export of a missing path: %d recs, want 0", len(none))
	}
	// The byte(i) fill makes chunks 0 and 2 identical, so the unique blobs
	// are: one base chunk, the tail, and 5 per-version variants of chunk 1
	// = 7 moved. Everything else dedups.
	if st.MovedChunks != 7 {
		t.Errorf("moved %d blobs, want 7 (dedup broken)", st.MovedChunks)
	}
	if st.DedupedChunks == 0 {
		t.Error("no deduped slots — per-slot pinning broken")
	}
	for v := 0; v < 5; v++ {
		want := multiVersionContent(v)
		e, err := dst.Get("auth", "/f", Version(v))
		if err != nil {
			t.Fatalf("dst get v%d: %v", v, err)
		}
		if !bytes.Equal(e.Content(), want) {
			t.Fatalf("v%d content mismatch after handoff", v)
		}
		if e.StateID != uint64(10+v) {
			t.Fatalf("v%d state id %d, want %d", v, e.StateID, 10+v)
		}
	}
	// The source history is untouched; dropping it must not break the
	// destination (references are independent).
	if err := src.Drop("auth", "/f"); err != nil {
		t.Fatalf("src drop: %v", err)
	}
	e, err := dst.Get("auth", "/f", 3)
	if err != nil || !bytes.Equal(e.Content(), multiVersionContent(3)) {
		t.Fatalf("dst history damaged by src drop: %v", err)
	}
	// The import keys by its own (server, path), not by the records' keys.
	other := New(0, nil)
	if _, err := other.ImportDelta("auth", "/g", -1, recs, dst.FetchBlob); err != nil {
		t.Fatalf("import under another path: %v", err)
	}
	if e, err := other.Get("auth", "/g", 4); err != nil || !bytes.Equal(e.Content(), multiVersionContent(4)) {
		t.Fatalf("import under another path wrong: %v", err)
	}
	if vs := other.Versions("auth", "/f"); len(vs) != 0 {
		t.Fatalf("import landed %d versions under the records' key", len(vs))
	}
}

func TestHandoffDedupAgainstResident(t *testing.T) {
	src := New(0, nil)
	dst := New(0, nil)
	content := multiVersionContent(0)
	// The destination already archived identical content under another path.
	if err := dst.Put("auth", "/other", 0, 1, content); err != nil {
		t.Fatalf("seed dst: %v", err)
	}
	if err := src.Put("auth", "/f", 0, 1, content); err != nil {
		t.Fatalf("seed src: %v", err)
	}
	st, err := dst.ImportDelta("auth", "/f", -1, exportAll(t, src, "/f"), src.FetchBlob)
	if err != nil {
		t.Fatalf("import: %v", err)
	}
	if st.MovedChunks != 0 {
		t.Errorf("moved %d blobs for fully-shared content, want 0", st.MovedChunks)
	}
	e, err := dst.Get("auth", "/f", 0)
	if err != nil || !bytes.Equal(e.Content(), content) {
		t.Fatalf("imported content wrong: %v", err)
	}
}

func TestHandoffRejectsExistingHistory(t *testing.T) {
	src := New(0, nil)
	dst := New(0, nil)
	if err := src.Put("auth", "/f", 0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := dst.Put("auth", "/f", 0, 1, []byte("y")); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ImportDelta("auth", "/f", -1, exportAll(t, src, "/f"), src.FetchBlob); !errors.Is(err, ErrStale) {
		t.Fatalf("fresh import over an existing history: %v, want ErrStale", err)
	}
	// The failed import must not have leaked references over the existing
	// history: its content still serves.
	e, err := dst.Get("auth", "/f", 0)
	if err != nil || string(e.Content()) != "y" {
		t.Fatalf("existing history damaged: %v", err)
	}
}

func TestHandoffFetchFailureUnwinds(t *testing.T) {
	src := New(0, nil)
	if err := src.Put("auth", "/f", 0, 1, multiVersionContent(0)); err != nil {
		t.Fatal(err)
	}
	dst := New(0, nil)
	calls := 0
	failing := func(h extent.Hash) (*extent.Chunk, error) {
		calls++
		if calls > 2 {
			return nil, fmt.Errorf("wire down")
		}
		return src.FetchBlob(h)
	}
	if _, err := dst.ImportDelta("auth", "/f", -1, exportAll(t, src, "/f"), failing); err == nil {
		t.Fatal("import with failing fetch succeeded")
	}
	if _, err := dst.Get("auth", "/f", 0); err == nil {
		t.Fatal("half-imported history is visible")
	}
	// Retry with a healthy fetch: the unwind must have left the store clean.
	if _, err := dst.ImportDelta("auth", "/f", -1, exportAll(t, src, "/f"), src.FetchBlob); err != nil {
		t.Fatalf("retry after unwind: %v", err)
	}
	e, err := dst.Get("auth", "/f", 0)
	if err != nil || !bytes.Equal(e.Content(), multiVersionContent(0)) {
		t.Fatalf("retried import wrong: %v", err)
	}
}

func TestHandoffTieredDestination(t *testing.T) {
	src := New(0, nil)
	for v := 0; v < 3; v++ {
		if err := src.Put("auth", "/f", Version(v), uint64(v+1), multiVersionContent(v)); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	dst, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ImportDelta("auth", "/f", -1, exportAll(t, src, "/f"), src.FetchBlob); err != nil {
		t.Fatalf("import: %v", err)
	}
	dst.Close()
	// The imported history must be durable: reopen and serve every version.
	re, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	for v := 0; v < 3; v++ {
		e, err := re.Get("auth", "/f", Version(v))
		if err != nil || !bytes.Equal(e.Content(), multiVersionContent(v)) {
			t.Fatalf("reopened v%d wrong: %v", v, err)
		}
	}
}

// TestHandoffCatalogFailureLeavesNoHistory fails a fresh import's catalog
// append partway: the records already logged are tombstoned, so neither the
// running store nor a reopen of its directory serves a half history.
func TestHandoffCatalogFailureLeavesNoHistory(t *testing.T) {
	src := New(0, nil)
	for v := 0; v < 4; v++ {
		if err := src.Put("auth", "/f", Version(v), uint64(v+1), multiVersionContent(v)); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	dst, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appends := 0
	dst.putHook = func(*catalog.PutRec) error {
		appends++
		if appends > 2 {
			return errors.New("catalog device full")
		}
		return nil
	}
	if _, err := dst.ImportDelta("auth", "/f", -1, exportAll(t, src, "/f"), src.FetchBlob); err == nil {
		t.Fatal("import with a failing catalog append succeeded")
	}
	if appends != 3 {
		t.Fatalf("catalog saw %d appends, want the failure on the third", appends)
	}
	if vs := dst.Versions("auth", "/f"); len(vs) != 0 {
		t.Fatalf("half-imported history visible: %d versions", len(vs))
	}
	dst.Close()
	re, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if vs := re.Versions("auth", "/f"); len(vs) != 0 {
		t.Fatalf("reopen resurrected %d half-imported versions", len(vs))
	}
	// The unwind left the store clean: a healthy retry lands everything.
	if _, err := re.ImportDelta("auth", "/f", -1, exportAll(t, src, "/f"), src.FetchBlob); err != nil {
		t.Fatalf("retry after reopen: %v", err)
	}
	for v := 0; v < 4; v++ {
		e, err := re.Get("auth", "/f", Version(v))
		if err != nil || !bytes.Equal(e.Content(), multiVersionContent(v)) {
			t.Fatalf("retried v%d wrong: %v", v, err)
		}
	}
}
