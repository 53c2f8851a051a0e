// Package wire is SharedDB's binary network protocol: the frame layout,
// message catalog and codecs shared by the server front end
// (internal/server) and the public client package.
//
// The protocol exists because the engine's folded throughput is only
// reachable from the network if a connection can keep several queries in
// flight at once — the paper's thousand concurrent queries arrive over a
// thousand sockets, and each socket must be able to land a window of
// requests in the same generation. The line protocol's one-statement-one-
// reply lockstep cannot do that; this one can:
//
//   - Every frame is length-prefixed (4-byte little-endian payload length,
//     then a 1-byte frame type, then the payload), so a reader never needs
//     delimiters and a malformed peer can be rejected without parsing.
//   - Requests carry a client-chosen request id and responses echo it, so
//     submission is pipelined: a client writes N requests back to back and
//     matches completions as they arrive — out of order when admission
//     control sheds one request of the window to a later generation.
//   - Statements are prepared once into server-side handles with typed
//     parameter binding (the engine's types.Value codec), so the hot path
//     never re-parses SQL.
//   - Results stream as cursor frames (header, row batches, done), so a
//     large result neither materializes twice nor blocks the connection's
//     other completions for longer than one batch frame.
//   - Admission rejections are typed on the wire: a BUSY frame carries the
//     engine's RetryAfter hint so well-behaved clients back off exactly as
//     the in-process TPC-W driver does.
//
// Both ends move frames in bursts rather than one at a time: they read
// through Reader (one read syscall delivers every frame in flight, and the
// caller learns when the burst ends) and write through Outbox (everything
// queued while a write is in flight leaves in the next one).
//
// Integers are uvarints unless noted; strings and values use the storage
// codec (internal/types). The protocol is versioned by the HELLO exchange;
// the frame catalog is pinned by the api/wire.txt golden (cmd/apisnapshot
// -wire), so any change to this file's surface fails CI until the golden is
// regenerated and reviewed.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"shareddb/internal/types"
)

// Version is the protocol version exchanged in HELLO. A server refuses
// versions it does not speak with an ERR frame and closes the connection.
const Version = 1

// MaxFrame is the largest payload (type byte included) either side accepts.
// Larger length prefixes are a protocol violation: the connection is closed
// without reading the body, so a hostile or corrupt peer cannot make the
// server allocate unboundedly.
const MaxFrame = 1 << 24

// Type identifies a frame. Requests (client to server) use the low range;
// responses and pushes (server to client) set the high bit.
type Type byte

// Client-to-server frames.
const (
	THello       Type = 0x01 // proto version + requested in-flight window
	TPrepare     Type = 0x02 // register a statement, returns a handle
	TQuery       Type = 0x03 // read by handle with bound parameters
	TExec        Type = 0x04 // write by handle with bound parameters
	TQuerySQL    Type = 0x05 // ad-hoc read: SQL text + parameters
	TExecSQL     Type = 0x06 // ad-hoc write or DDL: SQL text + parameters
	TCloseStmt   Type = 0x07 // drop a statement handle
	TSubscribe   Type = 0x08 // register a standing query (SQL + parameters)
	TUnsubscribe Type = 0x09 // detach a standing query by subscription id
	TStats       Type = 0x0A // engine counters snapshot
	TPing        Type = 0x0B // liveness probe
	TQuit        Type = 0x0C // orderly close (server answers BYE)
)

// Server-to-client frames.
const (
	THelloOK    Type = 0x81 // negotiated version + server in-flight window
	TPrepareOK  Type = 0x82 // statement handle + arity + shape
	TRowsHeader Type = 0x83 // opens a result cursor: column names
	TRowBatch   Type = 0x84 // one chunk of cursor rows
	TRowsDone   Type = 0x85 // closes a cursor: total row count
	TExecOK     Type = 0x86 // write outcome: rows affected
	TErr        Type = 0x87 // typed failure (code + message)
	TBusy       Type = 0x88 // admission rejection: RetryAfter + reason
	TStatsOK    Type = 0x89 // counter name/value pairs
	TPong       Type = 0x8A // ping reply
	TSubOK      Type = 0x8B // subscription registered: subscription id
	TSubPush    Type = 0x8C // async standing-query update (full or delta)
	TBye        Type = 0x8D // orderly close acknowledgement
)

// String names the frame type for diagnostics and the catalog golden.
func (t Type) String() string {
	switch t {
	case THello:
		return "HELLO"
	case TPrepare:
		return "PREPARE"
	case TQuery:
		return "QUERY"
	case TExec:
		return "EXEC"
	case TQuerySQL:
		return "QUERY_SQL"
	case TExecSQL:
		return "EXEC_SQL"
	case TCloseStmt:
		return "CLOSE_STMT"
	case TSubscribe:
		return "SUBSCRIBE"
	case TUnsubscribe:
		return "UNSUBSCRIBE"
	case TStats:
		return "STATS"
	case TPing:
		return "PING"
	case TQuit:
		return "QUIT"
	case THelloOK:
		return "HELLO_OK"
	case TPrepareOK:
		return "PREPARE_OK"
	case TRowsHeader:
		return "ROWS_HEADER"
	case TRowBatch:
		return "ROW_BATCH"
	case TRowsDone:
		return "ROWS_DONE"
	case TExecOK:
		return "EXEC_OK"
	case TErr:
		return "ERR"
	case TBusy:
		return "BUSY"
	case TStatsOK:
		return "STATS_OK"
	case TPong:
		return "PONG"
	case TSubOK:
		return "SUB_OK"
	case TSubPush:
		return "SUB_PUSH"
	case TBye:
		return "BYE"
	}
	return fmt.Sprintf("UNKNOWN(0x%02X)", byte(t))
}

// Error codes carried by ERR frames. BUSY is not an error code — admission
// rejections have their own frame so the retry hint is first-class.
const (
	CodeInternal    uint64 = 1 // engine/storage failure executing the request
	CodeBadRequest  uint64 = 2 // malformed frame, bad arity, protocol misuse
	CodeUnknownStmt uint64 = 3 // statement handle not open on this session
	CodeUnknownSub  uint64 = 4 // subscription id not open on this session
	CodeVersion     uint64 = 5 // HELLO version not supported
)

// ErrFrameTooLarge rejects a length prefix beyond MaxFrame.
var ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")

// ErrFrameEmpty rejects a zero-length frame (every frame has a type byte).
var ErrFrameEmpty = errors.New("wire: empty frame")

// errTrailing rejects payload bytes after a complete message: the protocol
// is versioned by HELLO, so a well-formed peer never pads frames, and
// tolerating garbage would let corruption pass silently.
var errTrailing = errors.New("wire: trailing bytes after message")

// ReadFrame reads one frame from r. buf is an optional reusable buffer; the
// returned payload aliases the returned buffer, which the caller passes back
// in for the next read. An io.EOF return means a clean end between frames;
// a partial frame surfaces io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader, buf []byte) (t Type, payload []byte, bufOut []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		return 0, nil, buf, ErrFrameEmpty
	}
	if n > MaxFrame {
		return 0, nil, buf, ErrFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, buf, err
	}
	return Type(buf[0]), buf[1:], buf, nil
}

// beginFrame appends the frame header (length placeholder + type byte) and
// returns the offset of the placeholder for endFrame to patch.
func beginFrame(dst []byte, t Type) ([]byte, int) {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0, byte(t))
	return dst, at
}

// endFrame patches the length prefix of the frame opened at lenAt.
func endFrame(dst []byte, lenAt int) []byte {
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst
}

// ---------------------------------------------------------------------------
// Payload primitives.

func appendUvarint(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendValues(dst []byte, vals []types.Value) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vals)))
	for _, v := range vals {
		dst = types.AppendValue(dst, v)
	}
	return dst
}

func appendRows(dst []byte, rows []types.Row) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(rows)))
	for _, r := range rows {
		dst = types.AppendRow(dst, r)
	}
	return dst
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = appendString(dst, s)
	}
	return dst
}

// dec is a bounds-checked payload cursor. Every getter is a no-op once err
// is set, so decoders read fields unconditionally and check once at the end
// — and a truncated, malformed or hostile payload can only produce an
// error, never a panic or an unbounded allocation (element counts are
// clamped against the bytes actually present: every element costs at least
// one byte).
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *dec) remaining() int { return len(d.b) - d.off }

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail(io.ErrUnexpectedEOF)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) bool() bool {
	if d.err != nil {
		return false
	}
	if d.remaining() < 1 {
		d.fail(io.ErrUnexpectedEOF)
		return false
	}
	b := d.b[d.off]
	d.off++
	if b > 1 {
		d.fail(fmt.Errorf("wire: bad bool byte %d", b))
		return false
	}
	return b == 1
}

func (d *dec) str() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(d.remaining()) {
		d.fail(io.ErrUnexpectedEOF)
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *dec) value() types.Value {
	if d.err != nil {
		return types.Null
	}
	v, n, err := types.DecodeValue(d.b[d.off:])
	if err != nil {
		d.fail(err)
		return types.Null
	}
	d.off += n
	return v
}

func (d *dec) values() []types.Value {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if n > uint64(d.remaining()) {
		d.fail(io.ErrUnexpectedEOF)
		return nil
	}
	out := make([]types.Value, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, d.value())
	}
	return out
}

// rows decodes a row list, cutting every row from one value slab: the slab
// is sized for the rows still to come at the width of the row in hand (row
// sets are rectangular), clamped like every count against the bytes actually
// present, and re-cut only if a later row turns out wider.
func (d *dec) rows() []types.Row {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n == 0 {
		return nil
	}
	if n > uint64(d.remaining()) {
		d.fail(io.ErrUnexpectedEOF)
		return nil
	}
	out := make([]types.Row, 0, n)
	var slab []types.Value
	for i := uint64(0); i < n; i++ {
		w := d.uvarint()
		if d.err != nil {
			break
		}
		if w > uint64(d.remaining()) {
			d.fail(io.ErrUnexpectedEOF)
			break
		}
		if slab == nil || uint64(len(slab)) < w {
			slab = make([]types.Value, min(w*(n-i), uint64(d.remaining())))
		}
		row := types.Row(slab[:w:w])
		slab = slab[w:]
		for j := range row {
			row[j] = d.value()
		}
		out = append(out, row)
	}
	return out
}

func (d *dec) strings() []string {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.remaining()) {
		d.fail(io.ErrUnexpectedEOF)
		return nil
	}
	out := make([]string, 0, n)
	for i := uint64(0); i < n && d.err == nil; i++ {
		out = append(out, d.str())
	}
	return out
}

// finish returns the decode error, rejecting unconsumed trailing bytes.
func (d *dec) finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return errTrailing
	}
	return nil
}

// ---------------------------------------------------------------------------
// Messages. Each message has an Append method producing a complete frame
// (header included) and a Decode function over the frame's payload.

// Hello opens a session: the client's protocol version and the in-flight
// window it intends to use (informational; the server replies with the
// window it enforces).
type Hello struct {
	Version uint64
	Window  uint64
}

func (m Hello) Append(dst []byte) []byte {
	dst, at := beginFrame(dst, THello)
	dst = appendUvarint(dst, m.Version)
	dst = appendUvarint(dst, m.Window)
	return endFrame(dst, at)
}

func DecodeHello(p []byte) (Hello, error) {
	d := dec{b: p}
	m := Hello{Version: d.uvarint(), Window: d.uvarint()}
	return m, d.finish()
}

// HelloOK acknowledges a session: the negotiated version and the
// per-connection in-flight window the server enforces (a client that
// pipelines beyond it is simply back-pressured by the server's reader).
type HelloOK struct {
	Version uint64
	Window  uint64
}

func (m HelloOK) Append(dst []byte) []byte {
	dst, at := beginFrame(dst, THelloOK)
	dst = appendUvarint(dst, m.Version)
	dst = appendUvarint(dst, m.Window)
	return endFrame(dst, at)
}

func DecodeHelloOK(p []byte) (HelloOK, error) {
	d := dec{b: p}
	m := HelloOK{Version: d.uvarint(), Window: d.uvarint()}
	return m, d.finish()
}

// Prepare registers SQL as a server-side statement handle.
type Prepare struct {
	ID  uint64
	SQL string
}

func (m Prepare) Append(dst []byte) []byte {
	dst, at := beginFrame(dst, TPrepare)
	dst = appendUvarint(dst, m.ID)
	dst = appendString(dst, m.SQL)
	return endFrame(dst, at)
}

func DecodePrepare(p []byte) (Prepare, error) {
	d := dec{b: p}
	m := Prepare{ID: d.uvarint(), SQL: d.str()}
	return m, d.finish()
}

// PrepareOK returns the handle: its id, parameter arity, whether it is a
// write, and the result column names (empty for writes).
type PrepareOK struct {
	ID        uint64
	Stmt      uint64
	NumParams uint64
	IsWrite   bool
	Columns   []string
}

func (m PrepareOK) Append(dst []byte) []byte {
	dst, at := beginFrame(dst, TPrepareOK)
	dst = appendUvarint(dst, m.ID)
	dst = appendUvarint(dst, m.Stmt)
	dst = appendUvarint(dst, m.NumParams)
	dst = appendBool(dst, m.IsWrite)
	dst = appendStrings(dst, m.Columns)
	return endFrame(dst, at)
}

func DecodePrepareOK(p []byte) (PrepareOK, error) {
	d := dec{b: p}
	m := PrepareOK{ID: d.uvarint(), Stmt: d.uvarint(), NumParams: d.uvarint(),
		IsWrite: d.bool(), Columns: d.strings()}
	return m, d.finish()
}

// StmtCall is a QUERY or EXEC by handle: the pipelined hot path.
type StmtCall struct {
	ID     uint64
	Stmt   uint64
	Params []types.Value
}

func (m StmtCall) Append(dst []byte, t Type) []byte {
	dst, at := beginFrame(dst, t)
	dst = appendUvarint(dst, m.ID)
	dst = appendUvarint(dst, m.Stmt)
	dst = appendValues(dst, m.Params)
	return endFrame(dst, at)
}

func DecodeStmtCall(p []byte) (StmtCall, error) {
	d := dec{b: p}
	m := StmtCall{ID: d.uvarint(), Stmt: d.uvarint(), Params: d.values()}
	return m, d.finish()
}

// SQLCall is an ad-hoc QUERY_SQL / EXEC_SQL / SUBSCRIBE: SQL text plus
// bound parameters.
type SQLCall struct {
	ID     uint64
	SQL    string
	Params []types.Value
}

func (m SQLCall) Append(dst []byte, t Type) []byte {
	dst, at := beginFrame(dst, t)
	dst = appendUvarint(dst, m.ID)
	dst = appendString(dst, m.SQL)
	dst = appendValues(dst, m.Params)
	return endFrame(dst, at)
}

func DecodeSQLCall(p []byte) (SQLCall, error) {
	d := dec{b: p}
	m := SQLCall{ID: d.uvarint(), SQL: d.str(), Params: d.values()}
	return m, d.finish()
}

// Ref is a request that names a server-side id: CLOSE_STMT (statement
// handle), UNSUBSCRIBE (subscription id).
type Ref struct {
	ID  uint64
	Ref uint64
}

func (m Ref) Append(dst []byte, t Type) []byte {
	dst, at := beginFrame(dst, t)
	dst = appendUvarint(dst, m.ID)
	dst = appendUvarint(dst, m.Ref)
	return endFrame(dst, at)
}

func DecodeRef(p []byte) (Ref, error) {
	d := dec{b: p}
	m := Ref{ID: d.uvarint(), Ref: d.uvarint()}
	return m, d.finish()
}

// Simple is a request or reply that carries only the request id: STATS,
// PING, PONG.
type Simple struct {
	ID uint64
}

func (m Simple) Append(dst []byte, t Type) []byte {
	dst, at := beginFrame(dst, t)
	dst = appendUvarint(dst, m.ID)
	return endFrame(dst, at)
}

func DecodeSimple(p []byte) (Simple, error) {
	d := dec{b: p}
	m := Simple{ID: d.uvarint()}
	return m, d.finish()
}

// Empty is a frame with no payload beyond its type: QUIT, BYE.
func AppendEmpty(dst []byte, t Type) []byte {
	dst, at := beginFrame(dst, t)
	return endFrame(dst, at)
}

func DecodeEmpty(p []byte) error {
	d := dec{b: p}
	return d.finish()
}

// RowsHeader opens a result cursor: the column names of the rows to follow.
type RowsHeader struct {
	ID      uint64
	Columns []string
}

func (m RowsHeader) Append(dst []byte) []byte {
	dst, at := beginFrame(dst, TRowsHeader)
	dst = appendUvarint(dst, m.ID)
	dst = appendStrings(dst, m.Columns)
	return endFrame(dst, at)
}

func DecodeRowsHeader(p []byte) (RowsHeader, error) {
	d := dec{b: p}
	m := RowsHeader{ID: d.uvarint(), Columns: d.strings()}
	return m, d.finish()
}

// RowBatch is one chunk of cursor rows.
type RowBatch struct {
	ID   uint64
	Rows []types.Row
}

func (m RowBatch) Append(dst []byte) []byte {
	dst, at := beginFrame(dst, TRowBatch)
	dst = appendUvarint(dst, m.ID)
	dst = appendRows(dst, m.Rows)
	return endFrame(dst, at)
}

func DecodeRowBatch(p []byte) (RowBatch, error) {
	d := dec{b: p}
	m := RowBatch{ID: d.uvarint(), Rows: d.rows()}
	return m, d.finish()
}

// RowsDone closes a cursor; Total is the full result's row count.
type RowsDone struct {
	ID    uint64
	Total uint64
}

func (m RowsDone) Append(dst []byte) []byte {
	dst, at := beginFrame(dst, TRowsDone)
	dst = appendUvarint(dst, m.ID)
	dst = appendUvarint(dst, m.Total)
	return endFrame(dst, at)
}

func DecodeRowsDone(p []byte) (RowsDone, error) {
	d := dec{b: p}
	m := RowsDone{ID: d.uvarint(), Total: d.uvarint()}
	return m, d.finish()
}

// ExecOK reports a write's outcome.
type ExecOK struct {
	ID           uint64
	RowsAffected uint64
}

func (m ExecOK) Append(dst []byte) []byte {
	dst, at := beginFrame(dst, TExecOK)
	dst = appendUvarint(dst, m.ID)
	dst = appendUvarint(dst, m.RowsAffected)
	return endFrame(dst, at)
}

func DecodeExecOK(p []byte) (ExecOK, error) {
	d := dec{b: p}
	m := ExecOK{ID: d.uvarint(), RowsAffected: d.uvarint()}
	return m, d.finish()
}

// Error is a typed failure reply.
type Error struct {
	ID   uint64
	Code uint64
	Msg  string
}

func (m Error) Append(dst []byte) []byte {
	dst, at := beginFrame(dst, TErr)
	dst = appendUvarint(dst, m.ID)
	dst = appendUvarint(dst, m.Code)
	dst = appendString(dst, m.Msg)
	return endFrame(dst, at)
}

func DecodeError(p []byte) (Error, error) {
	d := dec{b: p}
	m := Error{ID: d.uvarint(), Code: d.uvarint(), Msg: d.str()}
	return m, d.finish()
}

// Busy is a typed admission rejection: RetryAfterNs carries the engine's
// OverloadError.RetryAfter hint in nanoseconds.
type Busy struct {
	ID           uint64
	RetryAfterNs uint64
	Reason       string
}

func (m Busy) Append(dst []byte) []byte {
	dst, at := beginFrame(dst, TBusy)
	dst = appendUvarint(dst, m.ID)
	dst = appendUvarint(dst, m.RetryAfterNs)
	dst = appendString(dst, m.Reason)
	return endFrame(dst, at)
}

func DecodeBusy(p []byte) (Busy, error) {
	d := dec{b: p}
	m := Busy{ID: d.uvarint(), RetryAfterNs: d.uvarint(), Reason: d.str()}
	return m, d.finish()
}

// StatField is one named counter in a STATS_OK reply. Values are the
// engine's unsigned counters; gauges are widened. The field list is ordered
// and extensible — clients match by name, unknown names are ignored.
type StatField struct {
	Name  string
	Value uint64
}

// StatsOK carries the engine counter snapshot.
type StatsOK struct {
	ID     uint64
	Fields []StatField
}

func (m StatsOK) Append(dst []byte) []byte {
	dst, at := beginFrame(dst, TStatsOK)
	dst = appendUvarint(dst, m.ID)
	dst = appendUvarint(dst, uint64(len(m.Fields)))
	for _, f := range m.Fields {
		dst = appendString(dst, f.Name)
		dst = appendUvarint(dst, f.Value)
	}
	return endFrame(dst, at)
}

func DecodeStatsOK(p []byte) (StatsOK, error) {
	d := dec{b: p}
	m := StatsOK{ID: d.uvarint()}
	n := d.uvarint()
	if d.err == nil && n > uint64(d.remaining()) {
		d.fail(io.ErrUnexpectedEOF)
	}
	if d.err == nil && n > 0 {
		m.Fields = make([]StatField, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			m.Fields = append(m.Fields, StatField{Name: d.str(), Value: d.uvarint()})
		}
	}
	return m, d.finish()
}

// SubOK acknowledges a SUBSCRIBE with the subscription id push frames will
// carry.
type SubOK struct {
	ID  uint64
	Sub uint64
}

func (m SubOK) Append(dst []byte) []byte {
	dst, at := beginFrame(dst, TSubOK)
	dst = appendUvarint(dst, m.ID)
	dst = appendUvarint(dst, m.Sub)
	return endFrame(dst, at)
}

func DecodeSubOK(p []byte) (SubOK, error) {
	d := dec{b: p}
	m := SubOK{ID: d.uvarint(), Sub: d.uvarint()}
	return m, d.finish()
}

// SubPush is an asynchronous standing-query update: a full result (Full
// set, Rows populated) or a per-generation delta (Added/Removed). Push
// frames carry the subscription id, not a request id — they are not
// replies.
type SubPush struct {
	Sub     uint64
	Gen     uint64
	Full    bool
	Rows    []types.Row
	Added   []types.Row
	Removed []types.Row
}

func (m SubPush) Append(dst []byte) []byte {
	dst, at := beginFrame(dst, TSubPush)
	dst = appendUvarint(dst, m.Sub)
	dst = appendUvarint(dst, m.Gen)
	dst = appendBool(dst, m.Full)
	if m.Full {
		dst = appendRows(dst, m.Rows)
	} else {
		dst = appendRows(dst, m.Added)
		dst = appendRows(dst, m.Removed)
	}
	return endFrame(dst, at)
}

func DecodeSubPush(p []byte) (SubPush, error) {
	d := dec{b: p}
	m := SubPush{Sub: d.uvarint(), Gen: d.uvarint(), Full: d.bool()}
	if m.Full {
		m.Rows = d.rows()
	} else {
		m.Added = d.rows()
		m.Removed = d.rows()
	}
	return m, d.finish()
}
