package archive

import (
	"bytes"
	"errors"
	"testing"

	"datalinks/internal/extent"
)

// seedPair returns a source with versions 0..srcVers-1 of /f and a
// destination already holding the prefix 0..dstVers-1 (shipped from src, so
// the chains match).
func seedPair(t *testing.T, srcVers, dstVers int) (src, dst *Store) {
	t.Helper()
	src = New(0, nil)
	for v := 0; v < srcVers; v++ {
		if err := src.Put("auth", "/f", Version(v), uint64(10+v), multiVersionContent(v)); err != nil {
			t.Fatalf("src put v%d: %v", v, err)
		}
	}
	dst = New(0, nil)
	if dstVers > 0 {
		recs := exportAll(t, src, "/f")
		if _, err := dst.ImportDelta("auth", "/f", -1, recs[:dstVers], src.FetchBlob); err != nil {
			t.Fatalf("seed dst: %v", err)
		}
	}
	return src, dst
}

func TestDeltaShipsOnlyMissingVersions(t *testing.T) {
	src, dst := seedPair(t, 6, 3)
	recs, err := src.ExportDelta("auth", "/f", 2) // dst has 0..2
	if err != nil {
		t.Fatalf("export delta: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("delta has %d recs, want 3 (versions 3..5)", len(recs))
	}
	st, err := dst.ImportDelta("auth", "/f", 2, recs, src.FetchBlob)
	if err != nil {
		t.Fatalf("import delta: %v", err)
	}
	if st.Versions != 3 {
		t.Fatalf("imported %d versions, want 3", st.Versions)
	}
	// Only chunk 1 varies per version: 3 new versions move at most 3 + tail
	// blobs; a full history re-ship would have moved the base chunks again.
	if st.MovedChunks > 4 {
		t.Errorf("delta moved %d blobs — that is a full copy, not a delta", st.MovedChunks)
	}
	for v := 0; v < 6; v++ {
		e, err := dst.Get("auth", "/f", Version(v))
		if err != nil || !bytes.Equal(e.Content(), multiVersionContent(v)) {
			t.Fatalf("v%d wrong after delta import: %v", v, err)
		}
	}
}

func TestDeltaEmptyWhenCaughtUp(t *testing.T) {
	src, _ := seedPair(t, 4, 0)
	recs, err := src.ExportDelta("auth", "/f", 3)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if len(recs) != 0 {
		t.Fatalf("caught-up delta has %d recs, want 0", len(recs))
	}
}

func TestDeltaChainGap(t *testing.T) {
	src, dst := seedPair(t, 5, 2)
	// Base the source never archived (e.g. the replica ran ahead of a
	// restored owner): the chain cannot be extended, the caller must resync.
	if _, err := src.ExportDelta("auth", "/f", 99); !errors.Is(err, ErrChainGap) {
		t.Fatalf("export with unknown base: %v, want ErrChainGap", err)
	}
	if _, err := src.ExportDelta("auth", "/missing", 0); !errors.Is(err, ErrChainGap) {
		t.Fatalf("export of missing path: %v, want ErrChainGap", err)
	}
	// Non-contiguous delta (starts past the destination's last version).
	recs, err := src.ExportDelta("auth", "/f", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ImportDelta("auth", "/f", 3, recs, src.FetchBlob); !errors.Is(err, ErrChainGap) {
		t.Fatalf("gapped import: %v, want ErrChainGap", err)
	}
	// The records must be what ExportDelta returned for the base: a delta
	// exported after version 1 passed off as one after version 0 is a gap,
	// even though it would extend the destination's history.
	after1, err := src.ExportDelta("auth", "/f", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ImportDelta("auth", "/f", 0, after1, src.FetchBlob); !errors.Is(err, ErrChainGap) {
		t.Fatalf("import under a wrong base: %v, want ErrChainGap", err)
	}
	if n := len(dst.Versions("auth", "/f")); n != 2 {
		t.Fatalf("dst has %d versions after refused imports, want 2", n)
	}
	// The failed import left the destination intact.
	e, err := dst.Get("auth", "/f", 1)
	if err != nil || !bytes.Equal(e.Content(), multiVersionContent(1)) {
		t.Fatalf("dst damaged by rejected import: %v", err)
	}
	// A base >= 0 import onto an empty history is a gap too: only a fresh
	// import (base -1) starts a history.
	empty := New(0, nil)
	if _, err := empty.ImportDelta("auth", "/f", 3, recs, src.FetchBlob); !errors.Is(err, ErrChainGap) {
		t.Fatalf("delta into empty store: %v, want ErrChainGap", err)
	}
}

func TestDeltaIdempotentReship(t *testing.T) {
	src, dst := seedPair(t, 5, 3)
	recs, err := src.ExportDelta("auth", "/f", 1) // overlaps: dst already has 2
	if err != nil {
		t.Fatal(err)
	}
	st, err := dst.ImportDelta("auth", "/f", 1, recs, src.FetchBlob)
	if err != nil {
		t.Fatalf("overlapping re-ship: %v", err)
	}
	if st.Versions != 2 {
		t.Fatalf("imported %d versions, want 2 (3 and 4; 2 skipped)", st.Versions)
	}
	// A second identical ship is a clean no-op — the at-least-once delivery
	// case the replication retry produces.
	st, err = dst.ImportDelta("auth", "/f", 1, recs, src.FetchBlob)
	if err != nil {
		t.Fatalf("duplicate ship: %v", err)
	}
	if st.Versions != 0 || st.MovedChunks != 0 {
		t.Fatalf("duplicate ship imported %d versions, moved %d blobs; want 0/0", st.Versions, st.MovedChunks)
	}
	for v := 0; v < 5; v++ {
		e, err := dst.Get("auth", "/f", Version(v))
		if err != nil || !bytes.Equal(e.Content(), multiVersionContent(v)) {
			t.Fatalf("v%d wrong after re-ships: %v", v, err)
		}
	}
}

func TestDeltaFetchFailureKeepsPrefix(t *testing.T) {
	src, dst := seedPair(t, 6, 2)
	recs, err := src.ExportDelta("auth", "/f", 1)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	failing := func(h extent.Hash) (*extent.Chunk, error) {
		calls++
		if calls > 1 {
			return nil, errors.New("wire down")
		}
		return src.FetchBlob(h)
	}
	if _, err := dst.ImportDelta("auth", "/f", 1, recs, failing); err == nil {
		t.Fatal("import with failing fetch succeeded")
	}
	// The destination still serves what it had, and a healthy retry converges.
	e, err := dst.Get("auth", "/f", 1)
	if err != nil || !bytes.Equal(e.Content(), multiVersionContent(1)) {
		t.Fatalf("existing prefix damaged: %v", err)
	}
	if _, err := dst.ImportDelta("auth", "/f", 1, recs, src.FetchBlob); err != nil {
		t.Fatalf("retry: %v", err)
	}
	for v := 0; v < 6; v++ {
		e, err := dst.Get("auth", "/f", Version(v))
		if err != nil || !bytes.Equal(e.Content(), multiVersionContent(v)) {
			t.Fatalf("v%d wrong after retry: %v", v, err)
		}
	}
}

func TestDeltaDurableDestination(t *testing.T) {
	src, _ := seedPair(t, 4, 0)
	dir := t.TempDir()
	dst, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	recs := exportAll(t, src, "/f")
	if _, err := dst.ImportDelta("auth", "/f", -1, recs[:2], src.FetchBlob); err != nil {
		t.Fatal(err)
	}
	delta, err := src.ExportDelta("auth", "/f", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dst.ImportDelta("auth", "/f", 1, delta, src.FetchBlob); err != nil {
		t.Fatalf("delta import: %v", err)
	}
	dst.Close()
	re, err := NewTiered(0, nil, TierConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for v := 0; v < 4; v++ {
		e, err := re.Get("auth", "/f", Version(v))
		if err != nil || !bytes.Equal(e.Content(), multiVersionContent(v)) {
			t.Fatalf("reopened v%d wrong: %v", v, err)
		}
	}
}
