package frame

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		nil,
		{},
		[]byte("x"),
		bytes.Repeat([]byte{0xab}, 1<<20),
	}
	for _, p := range payloads {
		if err := Write(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(want))
		}
	}
}

func TestReadRejectsOversizedHeader(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<30)
	if _, err := Read(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("want error for frame above MaxPayload")
	}
}

// TestBogusHeaderDoesNotPreallocate is the regression test for the
// allocation hazard: a header advertising a huge (but in-cap) payload with
// no bytes behind it must fail with ErrUnexpectedEOF without the reader
// ever allocating the advertised size.
func TestBogusHeaderDoesNotPreallocate(t *testing.T) {
	var hdr [4]byte
	const advertised = 200 << 20 // under the 256 MiB cap
	binary.BigEndian.PutUint32(hdr[:], advertised)
	body := strings.Repeat("z", 4096) // far fewer bytes than advertised

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, err := Read(io.MultiReader(bytes.NewReader(hdr[:]), strings.NewReader(body)))
	runtime.ReadMemStats(&after)

	if err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > advertised/4 {
		t.Fatalf("reader allocated %d bytes for a %d-byte lie backed by %d real bytes",
			grew, advertised, len(body))
	}
}

func TestReadLimitTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []byte("hello world")); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := Read(bytes.NewReader(trunc)); err != io.ErrUnexpectedEOF {
		t.Fatalf("err = %v, want %v", err, io.ErrUnexpectedEOF)
	}
}

// TestReadEmptyStream: a stream that ends before a header is an error,
// not an empty frame.
func TestReadEmptyStream(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("err = %v, want %v", err, io.EOF)
	}
}

// TestReadInto: a frame that fits in the buffer is read into it, a larger
// one into a fresh slice, an empty one leaves the buffer empty, and a
// truncated one is an error. Steady state allocates nothing per frame.
func TestReadInto(t *testing.T) {
	var stream bytes.Buffer
	small, large := []byte("border row"), bytes.Repeat([]byte{7}, 300)
	for _, p := range [][]byte{small, nil, large} {
		if err := Write(&stream, p); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 0, 64)
	got, err := ReadInto(&stream, buf)
	if err != nil || !bytes.Equal(got, small) || &got[:1][0] != &buf[:1][0] {
		t.Fatalf("small frame: %q, %v; want it read into the buffer", got, err)
	}
	if got, err = ReadInto(&stream, got[:0]); err != nil || len(got) != 0 || cap(got) != cap(buf) {
		t.Fatalf("empty frame: len %d cap %d, %v", len(got), cap(got), err)
	}
	if got, err = ReadInto(&stream, got); err != nil || !bytes.Equal(got, large) || &got[0] == &buf[:1][0] {
		t.Fatalf("large frame: %d B, %v; want a fresh slice", len(got), err)
	}

	half := binary.BigEndian.AppendUint32(nil, 10)
	if _, err := ReadInto(bytes.NewReader(append(half, "abc"...)), buf); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: %v, want io.ErrUnexpectedEOF", err)
	}

	var frames bytes.Buffer
	for i := 0; i < 100; i++ {
		_ = Write(&frames, small)
	}
	r := bytes.NewReader(frames.Bytes())
	if allocs := testing.AllocsPerRun(50, func() {
		if got, err = ReadInto(r, buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("ReadInto allocated %.1f times per fitting frame", allocs)
	}
}

func TestConn(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	if err := c.WriteFrame([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadFrameInto(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "ping" {
		t.Fatalf("got %q", got)
	}
}

// BenchmarkWrite measures the framing hot path (-benchmem documents the
// pooled write-combining: one staged write, no per-frame allocation).
func BenchmarkWrite(b *testing.B) {
	payload := make([]byte, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := Write(io.Discard, payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundTrip measures a write+read cycle through an in-memory
// pipe buffer — the transport's per-message cost floor.
func BenchmarkRoundTrip(b *testing.B) {
	payload := make([]byte, 4096)
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := Write(&buf, payload); err != nil {
			b.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(payload) {
			b.Fatalf("read %d bytes, want %d", len(got), len(payload))
		}
	}
}
