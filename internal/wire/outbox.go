package wire

import (
	"io"
	"runtime"
	"sync"
)

// outboxKeepBuf bounds the flush buffers an Outbox keeps between flushes: a
// buffer that one large result grew beyond it is dropped rather than
// recycled, so an idle connection never pins its largest response.
const outboxKeepBuf = 64 << 10

// Encoder is a message the Outbox encodes at flush time, straight into the
// buffer the write syscall sends. AppendFrames appends one or more complete
// frames to dst and returns it. It runs exactly once, on the flusher
// goroutine, even when the connection has already failed (the output is
// then discarded) — an Encoder may release resources in it.
type Encoder interface {
	AppendFrames(dst []byte) []byte
}

// Outbox is a connection's coalescing write path, shared by the server and
// the client. Senders hand over encoded frames (Send) or messages still to
// be encoded (Enqueue) under the lock; the first one finding no flusher
// running starts one. While a write syscall is in flight everything else
// that is sent accumulates and ships in the next syscall — under fan-in
// load, writes amortize across completions instead of costing one syscall
// each, exactly like the engine's shared execution amortizes query work.
type Outbox struct {
	w io.WriteCloser

	mu       sync.Mutex
	buf      []byte    // encoded frames awaiting the next flush
	todo     []Encoder // messages awaiting the next flush, encoded after buf
	spare    []byte    // recycled flush buffer
	spareEnc []Encoder // recycled todo slice
	flushing bool
	closing  bool // close w once everything queued has been written
	err      error
}

// NewOutbox returns an Outbox writing to w.
func NewOutbox(w io.WriteCloser) *Outbox { return &Outbox{w: w} }

// Send queues one or more complete, already encoded frames. It reports
// false when the outbox is closing or has failed and the frames are dropped.
func (o *Outbox) Send(frames []byte) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err != nil || o.closing {
		return false
	}
	o.buf = append(o.buf, frames...)
	o.kick()
	return true
}

// Enqueue queues a message for the flusher to encode. It reports false when
// the outbox is closing or has failed: the message is dropped and its
// AppendFrames will not run.
func (o *Outbox) Enqueue(m Encoder) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.err != nil || o.closing {
		return false
	}
	o.todo = append(o.todo, m)
	o.kick()
	return true
}

// kick starts the flusher unless one is running (o.mu held).
func (o *Outbox) kick() {
	if !o.flushing {
		o.flushing = true
		go o.flushLoop()
	}
}

// CloseWhenDrained closes the connection after everything already queued
// has been written (or immediately when the outbox is idle or dead).
// Anything sent after this is dropped.
func (o *Outbox) CloseWhenDrained() {
	o.mu.Lock()
	if o.closing {
		o.mu.Unlock()
		return
	}
	o.closing = true
	idle := !o.flushing
	o.mu.Unlock()
	if idle {
		o.w.Close()
	}
}

// flushLoop writes until nothing is queued. Each round takes everything
// queued so far, encodes the pending messages behind the already encoded
// frames, and sends the lot with one write.
func (o *Outbox) flushLoop() {
	for {
		runtime.Gosched()
		o.mu.Lock()
		if len(o.buf) == 0 && len(o.todo) == 0 {
			closing := o.closing
			o.flushing = false
			o.mu.Unlock()
			if closing {
				o.w.Close()
			}
			return
		}
		buf, todo := o.buf, o.todo
		o.buf, o.todo = o.spare[:0], o.spareEnc[:0]
		dead := o.err != nil
		o.mu.Unlock()

		for i, m := range todo {
			buf = m.AppendFrames(buf)
			todo[i] = nil
		}
		var err error
		if !dead {
			_, err = o.w.Write(buf)
		}

		o.mu.Lock()
		o.spare, o.spareEnc = nil, todo[:0]
		if cap(buf) <= outboxKeepBuf {
			o.spare = buf[:0]
		}
		if err != nil {
			o.err = err
			o.buf = nil
		}
		o.mu.Unlock()
		if err != nil {
			// The peer is gone; unblock the connection's reader too.
			o.w.Close()
		}
	}
}
