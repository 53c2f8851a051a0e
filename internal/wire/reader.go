package wire

import (
	"encoding/binary"
	"io"
)

// Reader buffer sizing. A connection starts at readerMinBuf — the 1000-socket
// fan-in shape must not pay a burst-sized buffer per idle connection — grows
// to hold the largest frame it meets, and decays back: readerQuietBursts
// consecutive bursts that used under a quarter of the buffer halve it.
const (
	readerMinBuf      = 4 << 10
	readerQuietBursts = 16
)

// Reader reads frames through a buffer it owns, so one read syscall delivers
// every frame the peer had in flight: a pipelined window of requests, or all
// the replies one generation completed. Buffered tells the caller whether
// the burst continues — whether the next Next will return without touching
// the socket — which is what lets both ends treat a read burst, not a frame,
// as their unit of work.
//
// A Reader is owned by one goroutine.
type Reader struct {
	r        io.Reader
	buf      []byte
	pos, end int   // unread bytes are buf[pos:end]
	used     int   // high-water mark of end since the buffer last ran empty
	quiet    int   // consecutive bursts that left most of buf unused
	err      error // read error held back until the buffered bytes are consumed
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, buf: make([]byte, readerMinBuf)}
}

// Next returns the next frame, reading from the underlying reader only when
// no complete frame is buffered. The payload aliases the Reader's buffer and
// is valid until the following Next. io.EOF means a clean end between
// frames; a partial frame surfaces io.ErrUnexpectedEOF.
func (fr *Reader) Next() (Type, []byte, error) {
	for {
		n, err := fr.frameLen()
		if err != nil {
			return 0, nil, err
		}
		if n > 0 && fr.end-fr.pos >= 4+n {
			payload := fr.buf[fr.pos+4 : fr.pos+4+n]
			fr.pos += 4 + n
			return Type(payload[0]), payload[1:], nil
		}
		if err := fr.fill(4 + n); err != nil {
			return 0, nil, err
		}
	}
}

// Buffered reports whether Next will return without reading: a complete
// frame — or a length prefix Next will reject — is already in the buffer.
func (fr *Reader) Buffered() bool {
	n, err := fr.frameLen()
	return err != nil || (n > 0 && fr.end-fr.pos >= 4+n)
}

// frameLen returns the payload length of the frame at pos, 0 while its
// length prefix is still incomplete.
func (fr *Reader) frameLen() (int, error) {
	if fr.end-fr.pos < 4 {
		return 0, nil
	}
	n := binary.LittleEndian.Uint32(fr.buf[fr.pos:])
	if n == 0 {
		return 0, ErrFrameEmpty
	}
	if n > MaxFrame {
		return 0, ErrFrameTooLarge
	}
	return int(n), nil
}

// fill reads more bytes, first making room for a frame of need bytes at pos.
func (fr *Reader) fill(need int) error {
	if fr.pos == fr.end {
		// A burst ended: the buffer is empty, so resizing costs no copy.
		fr.decay()
		fr.pos, fr.end, fr.used = 0, 0, 0
	}
	if need > len(fr.buf) {
		size := len(fr.buf)
		for size < need {
			size *= 2
		}
		grown := make([]byte, size)
		fr.end = copy(grown, fr.buf[fr.pos:fr.end])
		fr.pos, fr.buf, fr.quiet = 0, grown, 0
	} else if fr.pos > 0 {
		fr.end = copy(fr.buf, fr.buf[fr.pos:fr.end])
		fr.pos = 0
	}
	if fr.err != nil {
		return fr.failed()
	}
	for empty := 0; ; empty++ {
		n, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += n
		fr.used = max(fr.used, fr.end)
		if n > 0 {
			fr.err = err
			return nil
		}
		if err != nil {
			fr.err = err
			return fr.failed()
		}
		if empty == 100 {
			return io.ErrNoProgress
		}
	}
}

// failed reports the held read error; an EOF inside a frame is unexpected.
func (fr *Reader) failed() error {
	if fr.err == io.EOF && fr.pos != fr.end {
		return io.ErrUnexpectedEOF
	}
	return fr.err
}

// decay halves an oversized buffer once readerQuietBursts consecutive bursts
// have each used under a quarter of it. Called with the buffer empty.
func (fr *Reader) decay() {
	if len(fr.buf) == readerMinBuf || fr.used*4 > len(fr.buf) {
		fr.quiet = 0
		return
	}
	if fr.quiet++; fr.quiet == readerQuietBursts {
		fr.buf = make([]byte, len(fr.buf)/2)
		fr.quiet = 0
	}
}
