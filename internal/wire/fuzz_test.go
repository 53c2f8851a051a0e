package wire

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"shareddb/internal/types"
)

// decodeAny dispatches a payload through the decoder for its frame type,
// mirroring what the server and client read loops do. The return value is
// ignored — fuzzing asserts only "never panic, never hang, never allocate
// unboundedly".
func decodeAny(t Type, payload []byte) {
	switch t {
	case THello:
		DecodeHello(payload)
	case THelloOK:
		DecodeHelloOK(payload)
	case TPrepare:
		DecodePrepare(payload)
	case TPrepareOK:
		DecodePrepareOK(payload)
	case TQuery, TExec:
		DecodeStmtCall(payload)
	case TQuerySQL, TExecSQL, TSubscribe:
		DecodeSQLCall(payload)
	case TCloseStmt, TUnsubscribe:
		DecodeRef(payload)
	case TStats, TPing, TPong:
		DecodeSimple(payload)
	case TQuit, TBye:
		DecodeEmpty(payload)
	case TRowsHeader:
		DecodeRowsHeader(payload)
	case TRowBatch:
		DecodeRowBatch(payload)
	case TRowsDone:
		DecodeRowsDone(payload)
	case TExecOK:
		DecodeExecOK(payload)
	case TErr:
		DecodeError(payload)
	case TBusy:
		DecodeBusy(payload)
	case TStatsOK:
		DecodeStatsOK(payload)
	case TSubOK:
		DecodeSubOK(payload)
	case TSubPush:
		DecodeSubPush(payload)
	}
}

// seedFrames returns one well-formed frame of every message shape, used
// both as the fuzz seed corpus and by TestFuzzSeedsDecode below.
func seedFrames() [][]byte {
	vals := []types.Value{types.Null, types.NewInt(7), types.NewString("Title 07%")}
	rows := []types.Row{{types.NewInt(1), types.NewString("a")}, {}}
	return [][]byte{
		Hello{Version: Version, Window: 32}.Append(nil),
		HelloOK{Version: Version, Window: 64}.Append(nil),
		Prepare{ID: 1, SQL: "SELECT i_id FROM item WHERE i_title LIKE ?"}.Append(nil),
		PrepareOK{ID: 1, Stmt: 2, NumParams: 1, Columns: []string{"i_id"}}.Append(nil),
		StmtCall{ID: 3, Stmt: 2, Params: vals}.Append(nil, TQuery),
		StmtCall{ID: 4, Stmt: 2, Params: vals}.Append(nil, TExec),
		SQLCall{ID: 5, SQL: "SELECT 1", Params: nil}.Append(nil, TQuerySQL),
		SQLCall{ID: 6, SQL: "SELECT 1", Params: vals}.Append(nil, TSubscribe),
		Ref{ID: 7, Ref: 2}.Append(nil, TCloseStmt),
		Ref{ID: 8, Ref: 1}.Append(nil, TUnsubscribe),
		Simple{ID: 9}.Append(nil, TStats),
		Simple{ID: 10}.Append(nil, TPing),
		AppendEmpty(nil, TQuit),
		RowsHeader{ID: 3, Columns: []string{"i_id", "i_title"}}.Append(nil),
		RowBatch{ID: 3, Rows: rows}.Append(nil),
		RowsDone{ID: 3, Total: 2}.Append(nil),
		ExecOK{ID: 4, RowsAffected: 1}.Append(nil),
		Error{ID: 5, Code: CodeBadRequest, Msg: "bad arity"}.Append(nil),
		Busy{ID: 6, RetryAfterNs: 5e6, Reason: "queue full"}.Append(nil),
		StatsOK{ID: 9, Fields: []StatField{{"generations", 1}}}.Append(nil),
		SubOK{ID: 6, Sub: 1}.Append(nil),
		SubPush{Sub: 1, Gen: 2, Full: true, Rows: rows}.Append(nil),
		SubPush{Sub: 1, Gen: 3, Added: rows[:1], Removed: rows[1:]}.Append(nil),
		AppendEmpty(nil, TBye),
	}
}

// TestFuzzSeedsDecode keeps the seed corpus honest outside fuzzing runs:
// every seed must read and decode cleanly.
func TestFuzzSeedsDecode(t *testing.T) {
	for i, frame := range seedFrames() {
		typ, payload, _, err := ReadFrame(bytes.NewReader(frame), nil)
		if err != nil {
			t.Fatalf("seed %d: ReadFrame: %v", i, err)
		}
		decodeAny(typ, payload)
	}
}

// FuzzDecode feeds arbitrary byte streams through the full read-and-decode
// loop. The property is defensive — no input may panic, and framing errors
// must be deterministic (the same stream fails the same way twice) — and
// differential: the buffered Reader, fed the stream in two reads split at a
// fuzzed boundary, must yield exactly the frames ReadFrame does.
func FuzzDecode(f *testing.F) {
	for _, frame := range seedFrames() {
		f.Add(frame)
	}
	// A stream of several frames, a truncated frame, raw garbage.
	var stream []byte
	for _, frame := range seedFrames()[:4] {
		stream = append(stream, frame...)
	}
	f.Add(stream)
	f.Add(stream[:len(stream)-3])
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x00})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		run := func() error {
			r := bytes.NewReader(data)
			var buf []byte
			for {
				typ, payload, bufOut, err := ReadFrame(r, buf)
				if err != nil {
					return err
				}
				buf = bufOut
				decodeAny(typ, payload)
			}
		}
		err1 := run()
		err2 := run()
		if err1 == io.EOF && err2 != io.EOF {
			t.Fatalf("nondeterministic framing: first EOF, then %v", err2)
		}
		cut := 0
		if len(data) > 0 {
			cut = int(data[0]) % len(data)
		}
		want, wantErr := drainReadFrame(data)
		got, err := drain(NewReader(&chunkReader{chunks: [][]byte{data[:cut], data[cut:]}}).Next)
		if !reflect.DeepEqual(got, want) || err != wantErr {
			t.Fatalf("split at %d: Reader read %d frames (err %v), ReadFrame %d (err %v)",
				cut, len(got), err, len(want), wantErr)
		}
	})
}
