package iq

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"
	"testing/iotest"
)

// refReaderCF32 is the per-sample reference for ReaderCF32.ReadBlock: one
// io.ReadFull per 8-byte sample through the same 64 KiB buffer.
type refReaderCF32 struct {
	br      *bufio.Reader
	samples int64
}

func (r *refReaderCF32) ReadBlock(dst []complex128) (int, error) {
	if len(dst) == 0 {
		return 0, fmt.Errorf("iq: ReadBlock into empty buffer")
	}
	var buf [8]byte
	for i := range dst {
		_, err := io.ReadFull(r.br, buf[:])
		if err == io.EOF {
			if i == 0 {
				return 0, io.EOF
			}
			return i, nil
		}
		if err == io.ErrUnexpectedEOF {
			return i, fmt.Errorf("iq: truncated sample at index %d", r.samples)
		}
		if err != nil {
			return i, fmt.Errorf("iq: read: %w", err)
		}
		re := math.Float32frombits(binary.LittleEndian.Uint32(buf[0:4]))
		im := math.Float32frombits(binary.LittleEndian.Uint32(buf[4:8]))
		dst[i] = complex(float64(re), float64(im))
		r.samples++
	}
	return len(dst), nil
}

var errSourceFailed = errors.New("source failed")

// shortReads wraps data in one of the short-read shapes a network source
// produces. Mode bit 2 adds a hard error after the data; bit 3 hands the
// reader a bufio.Reader whose size is not a whole number of samples.
func shortReads(data []byte, mode uint8) io.Reader {
	var r io.Reader = bytes.NewReader(data)
	if mode&4 != 0 {
		r = io.MultiReader(r, iotest.ErrReader(errSourceFailed))
	}
	switch mode % 4 {
	case 1:
		r = iotest.OneByteReader(r)
	case 2:
		r = iotest.HalfReader(r)
	case 3:
		r = iotest.DataErrReader(r)
	}
	if mode&8 != 0 {
		r = bufio.NewReaderSize(r, 64*1024+3)
	}
	return r
}

// checkReadBlock reads data through ReaderCF32 and the reference in
// blocks of block samples and requires the same sample counts, sample
// bits, errors and Samples() call by call, up to the first error.
func checkReadBlock(t *testing.T, data []byte, block int, mode uint8) {
	t.Helper()
	got := NewReaderCF32(shortReads(data, mode))
	want := &refReaderCF32{br: bufio.NewReaderSize(shortReads(data, mode), 64*1024)}
	dstG := make([]complex128, block)
	dstW := make([]complex128, block)
	// Every call but the last returns a full block, and the last returns
	// an error, so a reader that stalls fails here rather than hanging.
	for call := 0; call <= len(data)/(8*block)+1; call++ {
		nG, errG := got.ReadBlock(dstG)
		nW, errW := want.ReadBlock(dstW)
		if nG != nW {
			t.Fatalf("call %d: read %d samples, reference %d", call, nG, nW)
		}
		for i := 0; i < nG; i++ {
			g, w := dstG[i], dstW[i]
			if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				t.Fatalf("call %d sample %d: %v, reference %v", call, i, g, w)
			}
		}
		if (errG == nil) != (errW == nil) || (errG == io.EOF) != (errW == io.EOF) ||
			(errG != nil && errG.Error() != errW.Error()) {
			t.Fatalf("call %d: error %v, reference %v", call, errG, errW)
		}
		if errors.Is(errW, errSourceFailed) != errors.Is(errG, errSourceFailed) {
			t.Fatalf("call %d: error %v does not wrap the source's like the reference's %v", call, errG, errW)
		}
		if got.Samples() != want.samples {
			t.Fatalf("call %d: Samples() = %d, reference %d", call, got.Samples(), want.samples)
		}
		if errG != nil {
			return
		}
	}
	t.Fatalf("no error after %d bytes in blocks of %d samples", len(data), block)
}

// FuzzReaderCF32 checks the bulk ReadBlock against the per-sample
// reference on arbitrary bytes, block sizes and short-read shapes, so
// samples split across reads and truncated tails are covered.
func FuzzReaderCF32(f *testing.F) {
	f.Add([]byte{}, uint16(1), uint8(0))
	f.Add(make([]byte, 8*5), uint16(2), uint8(1))
	f.Add(make([]byte, 8*5+3), uint16(4), uint8(2))
	f.Add(make([]byte, 8*9+7), uint16(16), uint8(3))
	f.Add(make([]byte, 8*3+5), uint16(3), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, block uint16, mode uint8) {
		checkReadBlock(t, data, 1+int(block)%9000, mode%16)
	})
}

// TestReadBlockWindows covers what fuzz inputs rarely reach: blocks and
// captures larger than the reader's 64 KiB buffer.
func TestReadBlockWindows(t *testing.T) {
	data := make([]byte, 8*20000+5)
	for i := range data {
		data[i] = byte(i*131 + i>>8)
	}
	for _, block := range []int{1, 4096, 8192, 8193, 20000, 30000} {
		for mode := uint8(0); mode < 16; mode++ {
			checkReadBlock(t, data, block, mode)
			checkReadBlock(t, data[:8*20000], block, mode)
		}
	}
}
