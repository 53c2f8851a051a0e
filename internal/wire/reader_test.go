package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"sync"
	"testing"
	"testing/iotest"

	"shareddb/internal/types"
)

// chunkReader hands out its chunks one Read at a time, counting the reads.
type chunkReader struct {
	chunks [][]byte
	reads  int
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.chunks) == 0 {
		return 0, io.EOF
	}
	c.reads++
	n := copy(p, c.chunks[0])
	if c.chunks[0] = c.chunks[0][n:]; len(c.chunks[0]) == 0 {
		c.chunks = c.chunks[1:]
	}
	return n, nil
}

type readFrame struct {
	typ     Type
	payload []byte
}

// drain reads frames until next fails, copying each payload.
func drain(next func() (Type, []byte, error)) ([]readFrame, error) {
	var out []readFrame
	for {
		typ, payload, err := next()
		if err != nil {
			return out, err
		}
		out = append(out, readFrame{typ, append([]byte(nil), payload...)})
	}
}

func drainReadFrame(data []byte) ([]readFrame, error) {
	r := bytes.NewReader(data)
	var buf []byte
	return drain(func() (Type, []byte, error) {
		typ, payload, b, err := ReadFrame(r, buf)
		buf = b
		return typ, payload, err
	})
}

func seedStream() []byte {
	var stream []byte
	for _, f := range seedFrames() {
		stream = append(stream, f...)
	}
	return stream
}

// TestReaderMatchesReadFrame pins the buffered reader to the unbuffered
// one: whatever the stream — whole, truncated, split at every byte boundary
// across reads, or dribbling in one byte at a time — both yield the same
// frames and end with the same error.
func TestReaderMatchesReadFrame(t *testing.T) {
	stream := seedStream()
	for _, data := range [][]byte{stream, stream[:len(stream)-3], stream[:2], nil,
		append(append([]byte(nil), stream[:40]...), 0, 0, 0, 0),
		append(append([]byte(nil), stream[:40]...), 0xFF, 0xFF, 0xFF, 0xFF, 1)} {
		want, wantErr := drainReadFrame(data)
		check := func(name string, r io.Reader) {
			t.Helper()
			got, err := drain(NewReader(r).Next)
			if !reflect.DeepEqual(got, want) || err != wantErr {
				t.Fatalf("%s over %d bytes: %d frames, err %v; ReadFrame: %d frames, err %v",
					name, len(data), len(got), err, len(want), wantErr)
			}
		}
		check("whole", bytes.NewReader(data))
		check("one byte at a time", iotest.OneByteReader(bytes.NewReader(data)))
		check("data with EOF", iotest.DataErrReader(bytes.NewReader(data)))
		for cut := 1; cut < len(data); cut++ {
			check("split", &chunkReader{chunks: [][]byte{data[:cut], data[cut:]}})
		}
	}
}

// TestReaderBurst pins the burst contract: one read delivers every frame the
// peer had in flight, and Buffered says when the burst is over.
func TestReaderBurst(t *testing.T) {
	var burst []byte
	const n = 64
	for i := 0; i < n; i++ {
		burst = StmtCall{ID: uint64(i), Stmt: 1, Params: []types.Value{}}.Append(burst, TQuery)
	}
	ping := Simple{ID: 99}.Append(nil, TPing)
	src := &chunkReader{chunks: [][]byte{burst, ping[:3], ping[3:]}}
	r := NewReader(src)
	for i := 0; i < n; i++ {
		typ, payload, err := r.Next()
		if err != nil || typ != TQuery {
			t.Fatalf("frame %d: type %v err %v", i, typ, err)
		}
		if m, err := DecodeStmtCall(payload); err != nil || m.ID != uint64(i) {
			t.Fatalf("frame %d decoded as %+v, %v", i, m, err)
		}
		if got, want := r.Buffered(), i < n-1; got != want {
			t.Fatalf("after frame %d of the burst Buffered() = %v, want %v", i, got, want)
		}
	}
	if src.reads != 1 {
		t.Fatalf("a %d-frame burst took %d reads, want 1", n, src.reads)
	}
	if typ, _, err := r.Next(); err != nil || typ != TPing {
		t.Fatalf("frame split across reads: type %v err %v", typ, err)
	}
	if r.Buffered() {
		t.Fatal("Buffered() with nothing left")
	}
	if _, _, err := r.Next(); err != io.EOF {
		t.Fatalf("end of stream: %v, want io.EOF", err)
	}
}

// TestReaderBufferSizing pins the memory contract: a connection starts at
// readerMinBuf, holds the largest frame it met, and decays back to the
// minimum once its bursts are small again.
func TestReaderBufferSizing(t *testing.T) {
	big := Prepare{ID: 1, SQL: string(make([]byte, 40<<10))}.Append(nil)
	small := Simple{ID: 2}.Append(nil, TPing)
	chunks := [][]byte{big}
	const quietBursts = 3 * readerQuietBursts // 64 KiB → 4 KiB is four halvings
	for i := 0; i < quietBursts+readerQuietBursts; i++ {
		chunks = append(chunks, small)
	}
	r := NewReader(&chunkReader{chunks: chunks})
	if len(r.buf) != readerMinBuf {
		t.Fatalf("fresh reader holds %d bytes, want %d", len(r.buf), readerMinBuf)
	}
	if typ, payload, err := r.Next(); err != nil || typ != TPrepare || len(payload) < 40<<10 {
		t.Fatalf("big frame: type %v, %d bytes, err %v", typ, len(payload), err)
	}
	if len(r.buf) != 64<<10 {
		t.Fatalf("after a %d-byte frame the buffer is %d bytes, want %d", len(big), len(r.buf), 64<<10)
	}
	for i := 0; ; i++ {
		if _, _, err := r.Next(); err != nil {
			if err != io.EOF {
				t.Fatal(err)
			}
			break
		}
		if i == readerQuietBursts-2 && len(r.buf) != 64<<10 {
			t.Fatalf("buffer shrank to %d after only %d quiet bursts", len(r.buf), i+1)
		}
	}
	if len(r.buf) != readerMinBuf {
		t.Fatalf("after %d small bursts the buffer is %d bytes, want %d", len(chunks)-1, len(r.buf), readerMinBuf)
	}
}

// gatedWriter announces every Write on entered and blocks it until the test
// releases it, recording what each write carried.
type gatedWriter struct {
	entered chan struct{}
	gate    chan struct{}
	mu      sync.Mutex
	writes  [][]byte
	fail    error
	closed  chan struct{}
	once    sync.Once
}

func newGatedWriter() *gatedWriter {
	// entered is buffered for every write a test makes without listening.
	return &gatedWriter{entered: make(chan struct{}, 16), gate: make(chan struct{}), closed: make(chan struct{})}
}

func (w *gatedWriter) Write(p []byte) (int, error) {
	w.entered <- struct{}{}
	<-w.gate
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.fail != nil {
		return 0, w.fail
	}
	w.writes = append(w.writes, append([]byte(nil), p...))
	return len(p), nil
}

func (w *gatedWriter) Close() error {
	w.once.Do(func() { close(w.closed) })
	return nil
}

// countedFrame is an Encoder that counts how often it is encoded.
type countedFrame struct {
	id      uint64
	mu      *sync.Mutex
	encoded map[uint64]int
}

func (f countedFrame) AppendFrames(dst []byte) []byte {
	f.mu.Lock()
	f.encoded[f.id]++
	f.mu.Unlock()
	return Simple{ID: f.id}.Append(dst, TPong)
}

// TestOutboxCoalesces pins the write path's amortization: everything sent
// while a write is in flight ships in one following write, already encoded
// frames ahead of the messages encoded at flush time.
func TestOutboxCoalesces(t *testing.T) {
	w := newGatedWriter()
	o := NewOutbox(w)
	var mu sync.Mutex
	encoded := map[uint64]int{}
	if !o.Send(Simple{ID: 1}.Append(nil, TPing)) {
		t.Fatal("Send on a fresh outbox failed")
	}
	<-w.entered // the flusher is inside the first write, holding frame 1 alone
	for id := uint64(2); id <= 40; id++ {
		o.Enqueue(countedFrame{id, &mu, encoded})
	}
	o.Send(Simple{ID: 41}.Append(nil, TPing))
	w.gate <- struct{}{}
	w.gate <- struct{}{}
	o.CloseWhenDrained()
	<-w.closed

	if len(w.writes) != 2 {
		t.Fatalf("%d writes, want 2", len(w.writes))
	}
	frames, err := drainReadFrame(w.writes[1])
	if err != io.EOF || len(frames) != 40 {
		t.Fatalf("second write holds %d frames (err %v), want 40", len(frames), err)
	}
	if frames[0].typ != TPing {
		t.Fatalf("encoded frame not ahead of the deferred ones: first is %v", frames[0].typ)
	}
	for id := uint64(2); id <= 40; id++ {
		if encoded[id] != 1 {
			t.Fatalf("message %d encoded %d times", id, encoded[id])
		}
	}
	if o.Send(nil) || o.Enqueue(countedFrame{99, &mu, encoded}) {
		t.Fatal("a closing outbox accepted more")
	}
}

// lastFrame is an Encoder that announces its encoding.
type lastFrame struct{ encoded chan struct{} }

func (f lastFrame) AppendFrames(dst []byte) []byte {
	close(f.encoded)
	return dst
}

// TestOutboxFailureStillEncodes pins the Encoder contract a window slot's
// release depends on: messages queued when the write fails are still encoded
// (once, output discarded), the connection is closed, later sends refused.
func TestOutboxFailureStillEncodes(t *testing.T) {
	w := newGatedWriter()
	w.fail = errors.New("peer gone")
	o := NewOutbox(w)
	var mu sync.Mutex
	encoded := map[uint64]int{}
	for id := uint64(1); id <= 5; id++ {
		o.Enqueue(countedFrame{id, &mu, encoded})
	}
	// Encoders run in order, one flush round at a time: once the last one
	// has run, so has every earlier one.
	last := lastFrame{make(chan struct{})}
	o.Enqueue(last)
	close(w.gate) // every write fails from here on
	<-last.encoded
	<-w.closed
	mu.Lock()
	defer mu.Unlock()
	for id := uint64(1); id <= 5; id++ {
		if encoded[id] != 1 {
			t.Fatalf("message %d encoded %d times, want once", id, encoded[id])
		}
	}
	if o.Send(Simple{ID: 9}.Append(nil, TPing)) {
		t.Fatal("a failed outbox accepted a frame")
	}
}
