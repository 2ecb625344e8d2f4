package iq

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// ReaderCF32 is a chunked cf32 reader: it yields fixed-size blocks of
// samples from an io.Reader without ever holding the whole capture in
// memory. It satisfies the streaming Source contract used by
// internal/stream (ReadBlock), so an unbounded SDR pipe can feed the
// online detector directly.
type ReaderCF32 struct {
	br      *bufio.Reader
	samples int64
}

// NewReaderCF32 wraps r for chunked cf32 reading.
func NewReaderCF32(r io.Reader) *ReaderCF32 {
	return &ReaderCF32{br: bufio.NewReaderSize(r, 64*1024)}
}

// ReadBlock fills dst with up to len(dst) samples and returns how many
// were read. At end of stream it returns io.EOF (with n == 0; a short
// final block is returned with a nil error first). A trailing partial
// sample is reported as an error, not silently dropped. Any error ends
// the stream. Samples are parsed in place out of the read buffer.
func (r *ReaderCF32) ReadBlock(dst []complex128) (int, error) {
	if len(dst) == 0 {
		return 0, fmt.Errorf("iq: ReadBlock into empty buffer")
	}
	n := 0
	for n < len(dst) {
		// Peek blocks until the window is buffered or the source fails.
		// The window holds whole samples even when the caller's reader is
		// a bufio.Reader of an odd size (NewReaderSize then reuses it).
		b, err := r.br.Peek(min((len(dst)-n)*8, r.br.Size()&^7))
		k := len(b) / 8
		for i := range k {
			re := math.Float32frombits(binary.LittleEndian.Uint32(b[8*i:]))
			im := math.Float32frombits(binary.LittleEndian.Uint32(b[8*i+4:]))
			dst[n+i] = complex(float64(re), float64(im))
		}
		r.br.Discard(len(b))
		n += k
		r.samples += int64(k)
		switch {
		case err == nil:
		case err != io.EOF:
			return n, fmt.Errorf("iq: read: %w", err)
		case len(b)%8 != 0:
			return n, fmt.Errorf("iq: truncated sample at index %d", r.samples)
		case n == 0:
			return 0, io.EOF
		default:
			return n, nil
		}
	}
	return n, nil
}

// Samples returns how many samples have been read so far.
func (r *ReaderCF32) Samples() int64 { return r.samples }
