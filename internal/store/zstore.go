package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sync"

	"repro/internal/migrate"
	"repro/internal/obs"
)

// Compression at rest works in 64 KiB chunks: each chunk is compressed
// independently, so identical chunks produce identical compressed
// blobs.
// Every chunk carries the CRC-32 of its *uncompressed* bytes, verified
// on Get after decompression — a bit flipped at rest is an error, never
// silently decompressed garbage.

const (
	// zMagic prefixes every compressed-at-rest object. Objects without
	// it (written before the wrapper was configured, or by a plain
	// backend sharing the directory) pass through Get untouched.
	zMagic = "#!mcc-zst\n"
	// zChunk is the compression granularity.
	zChunk = 64 << 10
	// zFlate/zRaw flag how a chunk is stored: deflate-compressed, or
	// raw when compression did not shrink it (already-compressed or
	// high-entropy payloads).
	zRaw   = 0
	zFlate = 1
)

// zScratch pools the flate writer and encode buffer: checkpoint puts
// recur with similar sizes, so the compressor state is reused.
var zScratch = sync.Pool{
	New: func() any {
		w, _ := flate.NewWriter(io.Discard, flate.BestSpeed)
		return &zBufs{w: w}
	},
}

type zBufs struct {
	w    *flate.Writer
	enc  bytes.Buffer // whole encoded object
	cbuf bytes.Buffer // one chunk's compressed bytes
}

// Compressed wraps a store with per-chunk compression at rest.
type Compressed struct {
	inner       migrate.Store
	rawBytes    *obs.Counter // uncompressed payload bytes accepted
	storedBytes *obs.Counter // bytes actually handed to the backend
}

// NewCompressed wraps inner. The counters (store.z.raw_bytes,
// store.z.stored_bytes) land in opts.Registry when one is set.
func NewCompressed(inner migrate.Store, opts Options) *Compressed {
	c := &Compressed{inner: inner}
	if opts.Registry != nil {
		c.rawBytes = opts.Registry.Counter("store.z.raw_bytes")
		c.storedBytes = opts.Registry.Counter("store.z.stored_bytes")
	}
	return c
}

func (c *Compressed) Unwrap() migrate.Store { return c.inner }

// Put compresses data chunk by chunk and stores the framed result.
func (c *Compressed) Put(name string, data []byte) error {
	bufs := zScratch.Get().(*zBufs)
	defer zScratch.Put(bufs)
	enc := &bufs.enc
	enc.Reset()
	enc.WriteString(zMagic)
	var hdr [13]byte
	for off := 0; off < len(data); off += zChunk {
		end := off + zChunk
		if end > len(data) {
			end = len(data)
		}
		raw := data[off:end]
		bufs.cbuf.Reset()
		bufs.w.Reset(&bufs.cbuf)
		if _, err := bufs.w.Write(raw); err != nil {
			return fmt.Errorf("store: compressing %q: %w", name, err)
		}
		if err := bufs.w.Close(); err != nil {
			return fmt.Errorf("store: compressing %q: %w", name, err)
		}
		stored, flag := bufs.cbuf.Bytes(), byte(zFlate)
		if len(stored) >= len(raw) {
			stored, flag = raw, zRaw
		}
		hdr[0] = flag
		binary.BigEndian.PutUint32(hdr[1:5], uint32(len(raw)))
		binary.BigEndian.PutUint32(hdr[5:9], uint32(len(stored)))
		binary.BigEndian.PutUint32(hdr[9:13], crc32.ChecksumIEEE(raw))
		enc.Write(hdr[:])
		enc.Write(stored)
	}
	count(c.rawBytes, uint64(len(data)))
	count(c.storedBytes, uint64(enc.Len()))
	return c.inner.Put(name, enc.Bytes())
}

// Get decompresses a framed object, verifying each chunk's CRC against
// the decompressed bytes. Objects without the at-rest magic are
// returned untouched.
func (c *Compressed) Get(name string) ([]byte, error) {
	data, err := c.inner.Get(name)
	if err != nil {
		return nil, err
	}
	if !bytes.HasPrefix(data, []byte(zMagic)) {
		return data, nil
	}
	rest := data[len(zMagic):]
	var out []byte
	for chunk := 0; len(rest) > 0; chunk++ {
		if len(rest) < 13 {
			return nil, fmt.Errorf("store: %q chunk %d: truncated header", name, chunk)
		}
		flag := rest[0]
		rawLen := int(binary.BigEndian.Uint32(rest[1:5]))
		storedLen := int(binary.BigEndian.Uint32(rest[5:9]))
		sum := binary.BigEndian.Uint32(rest[9:13])
		rest = rest[13:]
		if storedLen > len(rest) || rawLen > zChunk {
			return nil, fmt.Errorf("store: %q chunk %d: truncated payload", name, chunk)
		}
		stored := rest[:storedLen]
		rest = rest[storedLen:]
		if out == nil {
			out = make([]byte, 0, rawLen*((len(rest)/(storedLen+13))+1))
		}
		start := len(out)
		switch flag {
		case zRaw:
			out = append(out, stored...)
		case zFlate:
			fr := flate.NewReader(bytes.NewReader(stored))
			buf := make([]byte, rawLen)
			if _, err := io.ReadFull(fr, buf); err != nil {
				return nil, fmt.Errorf("store: %q chunk %d: decompress: %w", name, chunk, err)
			}
			fr.Close()
			out = append(out, buf...)
		default:
			return nil, fmt.Errorf("store: %q chunk %d: unknown flag %d", name, chunk, flag)
		}
		raw := out[start:]
		if len(raw) != rawLen {
			return nil, fmt.Errorf("store: %q chunk %d: decompressed to %d bytes, want %d", name, chunk, len(raw), rawLen)
		}
		if crc32.ChecksumIEEE(raw) != sum {
			return nil, fmt.Errorf("store: %q chunk %d: CRC mismatch after decompression (corrupt at rest)", name, chunk)
		}
	}
	if out == nil {
		out = []byte{}
	}
	return out, nil
}

func (c *Compressed) List() ([]string, error) { return c.inner.List() }

func (c *Compressed) Delete(name string) error { return c.inner.Delete(name) }
