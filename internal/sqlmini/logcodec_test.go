package sqlmini

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"datalinks/internal/datalink"
	"datalinks/internal/wal"
)

// randString mixes ASCII, multi-byte runes and the empty string.
func randString(rng *rand.Rand) string {
	alphabet := []rune("abcXYZ/._- 09'é漢\x00")
	n := rng.Intn(12)
	out := make([]rune, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(out)
}

// randValue returns a value of every kind with equal odds, zoned times
// included.
func randValue(rng *rand.Rand) Value {
	switch Kind(rng.Intn(int(KindLink) + 1)) {
	case KindInt:
		return Int(rng.Int63() - rng.Int63())
	case KindFloat:
		return Float([]float64{0, -1.5, math.MaxFloat64, math.Inf(-1), rng.NormFloat64()}[rng.Intn(5)])
	case KindString:
		return Str(randString(rng))
	case KindBool:
		return Bool(rng.Intn(2) == 1)
	case KindTime:
		t := time.Unix(rng.Int63n(1<<40)-1<<39, rng.Int63n(1e9))
		switch rng.Intn(4) {
		case 0:
			t = t.UTC()
		case 1:
			t = t.In(time.FixedZone("EST", -5*3600))
		case 2:
			t = t.In(time.FixedZone("", 5*3600+45*60+7))
		}
		return Time(t)
	case KindLink:
		return Link(datalink.Link{Server: randString(rng), Path: "/" + randString(rng)})
	default:
		return Null()
	}
}

// randRow returns nil, an empty row or a row of random values.
func randRow(rng *rand.Rand) Row {
	switch rng.Intn(4) {
	case 0:
		return nil
	case 1:
		return Row{}
	}
	r := make(Row, 1+rng.Intn(6))
	for i := range r {
		r[i] = randValue(rng)
	}
	return r
}

func randPayload(rng *rand.Rand) logPayload {
	p := logPayload{
		Op:     dmlKind(1 + rng.Intn(int(opDropIndex))),
		Table:  randString(rng),
		Row:    RowID(rng.Uint64() >> uint(rng.Intn(64))),
		Before: randRow(rng),
		After:  randRow(rng),
		Col:    randString(rng),
	}
	switch rng.Intn(3) {
	case 1:
		p.Cols = []Column{}
	case 2:
		for i := rng.Intn(5); i >= 0; i-- {
			c := Column{
				Name:       randString(rng),
				Kind:       Kind(rng.Intn(int(KindLink) + 1)),
				PrimaryKey: rng.Intn(2) == 1,
				NotNull:    rng.Intn(2) == 1,
			}
			if c.Kind == KindLink {
				c.DL = datalink.ColumnOptions{
					Mode:         datalink.Modes[rng.Intn(len(datalink.Modes))],
					Recovery:     rng.Intn(2) == 1,
					TokenTTLSecs: rng.Intn(1<<20) - 1<<19,
				}
			}
			p.Cols = append(p.Cols, c)
		}
	}
	return p
}

// sameValue is strict equality, except that times compare by instant and
// zone offset (the codec, like gob before it, does not keep zone names).
func sameValue(a, b Value) bool {
	if a.K == KindTime && b.K == KindTime {
		_, ao := a.T.Zone()
		_, bo := b.T.Zone()
		return a.T.Equal(b.T) && ao == bo && (a.T.Location() == time.UTC) == (b.T.Location() == time.UTC)
	}
	if a.K == KindFloat && b.K == KindFloat {
		return math.Float64bits(a.F) == math.Float64bits(b.F)
	}
	return a == b
}

func sameRow(a, b Row) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameValue(a[i], b[i]) {
			return false
		}
	}
	return true
}

func samePayload(a, b logPayload) bool {
	if a.Op != b.Op || a.Table != b.Table || a.Row != b.Row || a.Col != b.Col ||
		!sameRow(a.Before, b.Before) || !sameRow(a.After, b.After) ||
		(a.Cols == nil) != (b.Cols == nil) || len(a.Cols) != len(b.Cols) {
		return false
	}
	for i := range a.Cols {
		if a.Cols[i] != b.Cols[i] {
			return false
		}
	}
	return true
}

func TestPayloadRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 5000; i++ {
		p := randPayload(rng)
		b := encodePayload(p)
		got, err := decodePayload(b)
		if err != nil {
			t.Fatalf("case %d: decode %+v: %v", i, p, err)
		}
		if !samePayload(p, got) {
			t.Fatalf("case %d: round trip\n got %+v\nwant %+v", i, got, p)
		}
		// Every strict prefix is torn and must be refused, never misread.
		for cut := 0; cut < len(b); cut += 1 + len(b)/8 {
			if _, err := decodePayload(b[:cut]); !errors.Is(err, ErrLogFormat) {
				t.Fatalf("case %d: prefix %d/%d decoded: %v", i, cut, len(b), err)
			}
		}
		if _, err := decodePayload(append(b, 0)); !errors.Is(err, ErrLogFormat) {
			t.Fatalf("case %d: trailing byte accepted: %v", i, err)
		}
	}
}

func TestPayloadTimeKeepsZoneOffset(t *testing.T) {
	zoned := time.Date(2001, 4, 2, 9, 30, 0, 123456789, time.FixedZone("PDT", -7*3600))
	for _, in := range []time.Time{{}, zoned, zoned.UTC(), zoned.Local()} {
		got, err := decodePayload(encodePayload(logPayload{Op: opInsert, After: Row{Time(in)}}))
		if err != nil {
			t.Fatal(err)
		}
		out := got.After[0].T
		_, inOff := in.Zone()
		_, outOff := out.Zone()
		if !out.Equal(in) || inOff != outOff || out.Location() == time.UTC != (in.Location() == time.UTC) {
			t.Fatalf("time %v came back as %v", in, out)
		}
		if in.IsZero() && out != in {
			t.Fatalf("zero time came back as %#v", out)
		}
	}
}

// gobPayload is the pre-binary WAL encoding, kept here only to prove that a
// log written by it is refused.
func gobPayload(t *testing.T, p logPayload) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRecoverRefusesGobPayload(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)`)
	txn := db.Begin()
	old := gobPayload(t, logPayload{Op: opInsert, Table: "t", Row: 7, After: Row{Int(7), Str("seven")}})
	if _, err := db.Log().Append(wal.Record{Type: wal.RecUpdate, TxnID: txn.ID(), Payload: old}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Log().Append(wal.Record{Type: wal.RecCommit, TxnID: txn.ID()}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Log().Flush(); err != nil {
		t.Fatal(err)
	}
	_, _, err := Recover(db.Crash(), Options{LockTimeout: 500 * time.Millisecond})
	if !errors.Is(err, ErrLogFormat) {
		t.Fatalf("recovery over a gob payload: err = %v, want ErrLogFormat", err)
	}
}

func TestAbortRefusesGobPayload(t *testing.T) {
	db := testDB(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v VARCHAR)`)
	txn := db.Begin()
	old := gobPayload(t, logPayload{Op: opInsert, Table: "t", Row: 7, After: Row{Int(7), Str("seven")}})
	lsn, err := db.Log().Append(wal.Record{Type: wal.RecUpdate, TxnID: txn.ID(), PrevLSN: txn.lastLSN, Payload: old})
	if err != nil {
		t.Fatal(err)
	}
	txn.lastLSN = lsn
	if err := txn.Abort(); !errors.Is(err, ErrLogFormat) {
		t.Fatalf("rollback over a gob payload: err = %v, want ErrLogFormat", err)
	}
}

func FuzzDecodePayload(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 16; i++ {
		f.Add(encodePayload(randPayload(rng)))
	}
	f.Add([]byte{})
	f.Add([]byte{logVersion})
	f.Add([]byte{0xff, 0x81, 0x03})
	f.Fuzz(func(t *testing.T, b []byte) {
		p, err := decodePayload(b)
		if err != nil {
			if !errors.Is(err, ErrLogFormat) {
				t.Fatalf("decode error %v does not wrap ErrLogFormat", err)
			}
			return
		}
		again, err := decodePayload(encodePayload(p))
		if err != nil || !samePayload(p, again) {
			t.Fatalf("accepted payload does not round-trip: %+v vs %+v (%v)", p, again, err)
		}
	})
}
