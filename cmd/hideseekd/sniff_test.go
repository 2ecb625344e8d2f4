package main

import (
	"bufio"
	"bytes"
	"io"
	"strings"
	"testing"
	"unicode"
)

// countingReader counts the bytes its reader hands out.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestSniffProtoBoundsLine sends a selector line far longer than the
// connection's read buffer: sniffProto must refuse it after reading at
// most one buffer, not accumulate the whole line.
func TestSniffProtoBoundsLine(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   string
	}{
		{"endless", protoPreamble + strings.Repeat("a", 1<<20) + "\n"},
		{"long name", protoPreamble + strings.Repeat("z", protoNameMax+1) + "\n"},
		{"inner space", protoPreamble + "zig bee\n"},
	} {
		src := &countingReader{r: strings.NewReader(tc.in)}
		br := bufio.NewReader(src)
		proto, err := sniffProto(br)
		if err == nil {
			t.Errorf("%s: accepted a %d-byte protocol name", tc.name, len(proto))
		}
		if src.n > br.Size() {
			t.Errorf("%s: read %d bytes for the selector line, want at most the %d-byte buffer", tc.name, src.n, br.Size())
		}
	}
}

// FuzzSniffProto feeds arbitrary stream heads through sniffProto with
// read buffers from 16 bytes up. It must not panic; a selected name is
// short and has no whitespace, and the stream goes on right after the
// selector line; a stream without a selector is left untouched. Seeds
// are in testdata/fuzz/FuzzSniffProto.
func FuzzSniffProto(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, size uint16) {
		br := bufio.NewReaderSize(bytes.NewReader(data), 16+int(size)%4096)
		proto, err := sniffProto(br)
		if err != nil {
			return
		}
		rest, _ := io.ReadAll(br)
		if proto == "" {
			if !bytes.Equal(rest, data) {
				t.Fatalf("no selector, but the stream lost its head: %q left of %q", rest, data)
			}
			return
		}
		if len(proto) > protoNameMax {
			t.Fatalf("selected a %d-byte name", len(proto))
		}
		if strings.ContainsFunc(proto, unicode.IsSpace) {
			t.Fatalf("selected name %q contains whitespace", proto)
		}
		nl := bytes.IndexByte(data, '\n')
		if !bytes.HasPrefix(data, []byte(protoPreamble)) || nl < 0 || !bytes.Equal(rest, data[nl+1:]) {
			t.Fatalf("selected %q from %q, leaving %q", proto, data, rest)
		}
	})
}
