package sqlmini

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"datalinks/internal/datalink"
)

// The WAL payload codec: one fixed, length-prefixed binary layout for the
// body of RecUpdate/RecCLR records, decoded by slicing rather than by
// reflection. Every record re-sent gob type descriptors before; this layout
// carries only the values.
//
//	payload := version:u8 op:u8 table:str row:uvarint before:row after:row cols:cols col:str
//	str     := len:uvarint bytes
//	row     := n:uvarint value*(n-1)          (n = 0: nil row, 1: empty row)
//	cols    := n:uvarint column*(n-1)         (same nil/empty rule)
//	column  := name:str kind:u8 flags:u8 integrity:u8 read:u8 write:u8 ttl:varint
//	value   := kind:u8 body                   (body by kind; NULL has none)
//
// A time body is zone:u8 (0 UTC, 1 zoned) [offset:varint seconds if zoned]
// unix:varint nanos:uvarint. The decoder refuses any other version byte,
// every malformed or trailing byte, and every unknown op or kind with
// ErrLogFormat — in particular a log written by the previous gob encoding,
// whose first byte is never logVersion.

// logVersion is the leading byte of every payload in the current layout.
const logVersion byte = 0x01

// ErrLogFormat marks a WAL payload this build cannot decode: a foreign or
// older record layout (the pre-binary gob log included) or a corrupt body.
// Recovery and rollback refuse it rather than guess.
var ErrLogFormat = errors.New("sqlmini: unsupported WAL payload format")

// Time zone markers, and the widest zone offset accepted (a day, in seconds).
const (
	timeUTC   byte = 0
	timeZoned byte = 1

	maxZoneOffset = 24 * 60 * 60
)

// Column flag bits.
const (
	colPrimaryKey byte = 1 << iota
	colNotNull
	colRecovery
)

func encodePayload(p logPayload) []byte {
	b := make([]byte, 0, 64+len(p.Table)+16*(len(p.Before)+len(p.After)))
	b = append(b, logVersion, byte(p.Op))
	b = appendStr(b, p.Table)
	b = binary.AppendUvarint(b, uint64(p.Row))
	b = appendRow(b, p.Before)
	b = appendRow(b, p.After)
	b = appendLen(b, len(p.Cols), p.Cols == nil)
	for _, c := range p.Cols {
		b = appendStr(b, c.Name)
		var flags byte
		if c.PrimaryKey {
			flags |= colPrimaryKey
		}
		if c.NotNull {
			flags |= colNotNull
		}
		if c.DL.Recovery {
			flags |= colRecovery
		}
		b = append(b, byte(c.Kind), flags, byte(c.DL.Mode.Integrity), byte(c.DL.Mode.Read), byte(c.DL.Mode.Write))
		b = binary.AppendVarint(b, int64(c.DL.TokenTTLSecs))
	}
	return appendStr(b, p.Col)
}

func appendStr(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendLen writes a slice length that keeps nil and empty apart.
func appendLen(b []byte, n int, isNil bool) []byte {
	if isNil {
		return append(b, 0)
	}
	return binary.AppendUvarint(b, uint64(n)+1)
}

func appendRow(b []byte, r Row) []byte {
	b = appendLen(b, len(r), r == nil)
	for _, v := range r {
		b = appendValue(b, v)
	}
	return b
}

func appendValue(b []byte, v Value) []byte {
	b = append(b, byte(v.K))
	switch v.K {
	case KindInt:
		b = binary.AppendVarint(b, v.I)
	case KindFloat:
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v.F))
	case KindString:
		b = appendStr(b, v.S)
	case KindBool:
		if v.B {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case KindTime:
		if v.T.Location() == time.UTC {
			b = append(b, timeUTC)
		} else {
			_, off := v.T.Zone()
			b = append(b, timeZoned)
			b = binary.AppendVarint(b, int64(off))
		}
		b = binary.AppendVarint(b, v.T.Unix())
		b = binary.AppendUvarint(b, uint64(v.T.Nanosecond()))
	case KindLink:
		b = appendStr(b, v.L.Server)
		b = appendStr(b, v.L.Path)
	}
	return b
}

// payloadReader decodes one payload by slicing. The first fault clears ok
// and empties the input, so every later read fails too.
type payloadReader struct {
	b  []byte
	ok bool
}

func (r *payloadReader) bad() {
	r.ok = false
	r.b = nil
}

func (r *payloadReader) byte1() byte {
	if len(r.b) < 1 {
		r.bad()
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *payloadReader) bytesN(n uint64) []byte {
	if n > uint64(len(r.b)) {
		r.bad()
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *payloadReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.bad()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *payloadReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.bad()
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *payloadReader) str() string { return string(r.bytesN(r.uvarint())) }

// count reads a nil/empty-preserving length. Every element takes at least
// minSize bytes, so a count the remaining input cannot hold is refused
// before anything is allocated.
func (r *payloadReader) count(minSize int) (n int, isNil bool) {
	c := r.uvarint()
	if !r.ok || c == 0 {
		return 0, true
	}
	if c-1 > uint64(len(r.b)/minSize) {
		r.bad()
		return 0, true
	}
	return int(c - 1), false
}

func (r *payloadReader) row() Row {
	n, isNil := r.count(1)
	if isNil {
		return nil
	}
	row := make(Row, n)
	for i := range row {
		row[i] = r.value()
	}
	return row
}

func (r *payloadReader) value() Value {
	switch Kind(r.byte1()) {
	case KindNull:
		return Value{}
	case KindInt:
		return Int(r.varint())
	case KindFloat:
		if b := r.bytesN(8); b != nil {
			return Float(math.Float64frombits(binary.LittleEndian.Uint64(b)))
		}
	case KindString:
		return Str(r.str())
	case KindBool:
		switch r.byte1() {
		case 0:
			return Bool(false)
		case 1:
			return Bool(true)
		}
		r.bad()
	case KindTime:
		return Time(r.time())
	case KindLink:
		server := r.str()
		return Link(datalink.Link{Server: server, Path: r.str()})
	default:
		r.bad()
	}
	return Value{}
}

// time inverts the KindTime body. Like gob's time encoding it restores the
// instant and the zone offset, not the zone name: a zoned time comes back in
// time.Local when the offsets agree, else in an unnamed fixed zone.
func (r *payloadReader) time() time.Time {
	zone := r.byte1()
	var off int64
	if zone == timeZoned {
		off = r.varint()
	} else if zone != timeUTC {
		r.bad()
	}
	sec := r.varint()
	nsec := r.uvarint()
	if !r.ok || nsec >= 1e9 || off < -maxZoneOffset || off > maxZoneOffset {
		r.bad()
		return time.Time{}
	}
	t := time.Unix(sec, int64(nsec))
	if zone == timeUTC {
		return t.UTC()
	}
	if _, local := t.Zone(); int64(local) != off {
		t = t.In(time.FixedZone("", int(off)))
	}
	return t
}

func (r *payloadReader) column() Column {
	c := Column{Name: r.str(), Kind: Kind(r.byte1())}
	flags := r.byte1()
	if c.Kind > KindLink || flags&^(colPrimaryKey|colNotNull|colRecovery) != 0 {
		r.bad()
	}
	c.PrimaryKey = flags&colPrimaryKey != 0
	c.NotNull = flags&colNotNull != 0
	c.DL.Recovery = flags&colRecovery != 0
	c.DL.Mode.Integrity = datalink.IntegrityOpt(r.byte1())
	c.DL.Mode.Read = datalink.AccessCtl(r.byte1())
	c.DL.Mode.Write = datalink.AccessCtl(r.byte1())
	ttl := r.varint()
	if ttl < math.MinInt32 || ttl > math.MaxInt32 {
		r.bad()
	}
	c.DL.TokenTTLSecs = int(ttl)
	return c
}

// decodePayload inverts encodePayload. Any payload it cannot read exactly —
// wrong version byte, torn or trailing bytes, unknown op or kind — yields an
// error wrapping ErrLogFormat; it never panics on arbitrary input.
func decodePayload(b []byte) (logPayload, error) {
	if len(b) == 0 || b[0] != logVersion {
		return logPayload{}, fmt.Errorf("%w: not a version %d payload", ErrLogFormat, logVersion)
	}
	r := &payloadReader{b: b[1:], ok: true}
	p := logPayload{Op: dmlKind(r.byte1())}
	if p.Op < opInsert || p.Op > opDropIndex {
		r.bad()
	}
	p.Table = r.str()
	p.Row = RowID(r.uvarint())
	p.Before = r.row()
	p.After = r.row()
	// A column takes at least a name length, five bytes and a ttl.
	if n, isNil := r.count(7); !isNil {
		p.Cols = make([]Column, n)
		for i := range p.Cols {
			p.Cols[i] = r.column()
		}
	}
	p.Col = r.str()
	if !r.ok || len(r.b) != 0 {
		return logPayload{}, fmt.Errorf("%w: malformed version %d payload", ErrLogFormat, logVersion)
	}
	return p, nil
}
