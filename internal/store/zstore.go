package store

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"repro/internal/migrate"
	"repro/internal/obs"
)

// Compression at rest works in 64 KiB chunks: each chunk is stored
// independently, so identical chunks produce identical stored bytes.
// Before any deflate, Put estimates the chunk's order-0 byte entropy from
// windows spread evenly across it; a chunk whose estimate says deflate
// cannot reach zMinRatio is stored raw without being deflated. The
// decision reads only the chunk's bytes, never its name, position or
// earlier puts.
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
	// raw — either because its entropy estimate fell short of
	// zMinRatio, or because deflate did not shrink it (already
	// compressed or high-entropy payloads).
	zRaw   = 0
	zFlate = 1
)

// zMinRatio is the deflate ratio a chunk's entropy estimate must reach
// before Put deflates it. Checkpoint images of large integer arrays
// (zig-zag varints of 20- to 30-bit words) estimate at 1.03× and deflate
// to 1.00–1.09× at BestSpeed, about 300 µs per 64 KiB chunk on 2 vCPU:
// on the bench's ledger_ckpt, deflating them made the median zdir put
// 3.4 ms instead of 1.3 ms to save a tenth of the bytes. Grid heap
// snapshots (runs of small values) estimate at 1.5× and deflate to
// 3.3×, well clear of the cut.
const zMinRatio = 1.2

// The estimate histograms zWindows windows of zWindow bytes, evenly
// spaced from the chunk's first byte to its last — an eighth of a full
// chunk, never only a prefix, which on an image would sample just the
// program. Chunks no longer than the sample are histogrammed whole.
const (
	zWindows = 32
	zWindow  = 256
)

// worthDeflating reports whether chunk's estimated order-0 entropy H
// (bits per byte) leaves deflate room to reach zMinRatio, i.e. whether
// 8/H >= zMinRatio. Order-0 entropy ignores repeated strings, so a
// chunk made of repeats of a high-entropy string is stored raw though
// deflate would shrink it: a missed saving, never a wrong byte. The
// opposite error, a chunk that passes but does not shrink, is caught by
// Put's raw-if-not-smaller rule.
func worthDeflating(chunk []byte) bool {
	var hist [256]uint32
	n := len(chunk)
	if n <= zWindows*zWindow {
		for _, b := range chunk {
			hist[b]++
		}
	} else {
		for i := 0; i < zWindows; i++ {
			off := i * (n - zWindow) / (zWindows - 1)
			for _, b := range chunk[off : off+zWindow] {
				hist[b]++
			}
		}
		n = zWindows * zWindow
	}
	// H = log2 n − (Σ c·log2 c) / n over the byte counts c.
	var sum float64
	for _, c := range hist {
		if c > 1 {
			sum += float64(c) * math.Log2(float64(c))
		}
	}
	h := math.Log2(float64(n)) - sum/float64(n)
	return h*zMinRatio <= 8
}

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
	rawChunks   *obs.Counter // chunks stored as they are
	flateChunks *obs.Counter // chunks stored deflated
}

// NewCompressed wraps inner. The counters (store.z.raw_bytes,
// store.z.stored_bytes, store.z.raw_chunks, store.z.flate_chunks) land
// in opts.Registry when one is set.
func NewCompressed(inner migrate.Store, opts Options) *Compressed {
	c := &Compressed{inner: inner}
	if opts.Registry != nil {
		c.rawBytes = opts.Registry.Counter("store.z.raw_bytes")
		c.storedBytes = opts.Registry.Counter("store.z.stored_bytes")
		c.rawChunks = opts.Registry.Counter("store.z.raw_chunks")
		c.flateChunks = opts.Registry.Counter("store.z.flate_chunks")
	}
	return c
}

func (c *Compressed) Unwrap() migrate.Store { return c.inner }

// Put stores data chunk by chunk, deflating the chunks whose entropy
// estimate says deflate pays, and stores the framed result.
func (c *Compressed) Put(name string, data []byte) error {
	bufs := zScratch.Get().(*zBufs)
	defer zScratch.Put(bufs)
	enc := &bufs.enc
	enc.Reset()
	enc.WriteString(zMagic)
	var hdr [13]byte
	var rawChunks, flateChunks uint64
	for off := 0; off < len(data); off += zChunk {
		end := off + zChunk
		if end > len(data) {
			end = len(data)
		}
		raw := data[off:end]
		stored, flag := raw, byte(zRaw)
		if worthDeflating(raw) {
			bufs.cbuf.Reset()
			bufs.w.Reset(&bufs.cbuf)
			if _, err := bufs.w.Write(raw); err != nil {
				return fmt.Errorf("store: compressing %q: %w", name, err)
			}
			if err := bufs.w.Close(); err != nil {
				return fmt.Errorf("store: compressing %q: %w", name, err)
			}
			if bufs.cbuf.Len() < len(raw) {
				stored, flag = bufs.cbuf.Bytes(), zFlate
			}
		}
		if flag == zFlate {
			flateChunks++
		} else {
			rawChunks++
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
	count(c.rawChunks, rawChunks)
	count(c.flateChunks, flateChunks)
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
	out, err := zDecode(data[len(zMagic):])
	if err != nil {
		return nil, fmt.Errorf("store: %q %w", name, err)
	}
	return out, nil
}

// zDecode unframes the chunks that follow zMagic. Headers are not
// trusted to size anything: out holds verified chunks plus room for at
// most the one chunk being decoded (a header's raw length is capped at
// zChunk), and grows by doubling, so what a forged object can make Get
// allocate is bounded by a small multiple of what it really decodes to.
// Deflated chunks decode straight into out through one reused reader.
// On error, out is the verified prefix.
func zDecode(rest []byte) (out []byte, err error) {
	out = []byte{}
	var src bytes.Reader
	var zr io.ReadCloser
	for chunk := 0; len(rest) > 0; chunk++ {
		if len(rest) < 13 {
			return out, fmt.Errorf("chunk %d: truncated header", chunk)
		}
		flag := rest[0]
		rawLen := int(binary.BigEndian.Uint32(rest[1:5]))
		storedLen := int(binary.BigEndian.Uint32(rest[5:9]))
		sum := binary.BigEndian.Uint32(rest[9:13])
		rest = rest[13:]
		if storedLen > len(rest) || rawLen > zChunk {
			return out, fmt.Errorf("chunk %d: truncated payload", chunk)
		}
		stored := rest[:storedLen]
		rest = rest[storedLen:]
		start := len(out)
		switch flag {
		case zRaw:
			if storedLen != rawLen {
				return out, fmt.Errorf("chunk %d: raw chunk of %d bytes, want %d", chunk, storedLen, rawLen)
			}
			out = append(zGrow(out, rawLen), stored...)
		case zFlate:
			out = zGrow(out, rawLen)[:start+rawLen]
			src.Reset(stored)
			if zr == nil {
				zr = flate.NewReader(&src)
			} else if err := zr.(flate.Resetter).Reset(&src, nil); err != nil {
				return out[:start], fmt.Errorf("chunk %d: decompress: %w", chunk, err)
			}
			if _, err := io.ReadFull(zr, out[start:]); err != nil {
				return out[:start], fmt.Errorf("chunk %d: decompress: %w", chunk, err)
			}
		default:
			return out, fmt.Errorf("chunk %d: unknown flag %d", chunk, flag)
		}
		if crc32.ChecksumIEEE(out[start:]) != sum {
			return out[:start], fmt.Errorf("chunk %d: CRC mismatch after decompression (corrupt at rest)", chunk)
		}
	}
	return out, nil
}

// zGrow returns out with room for n more bytes. Capacity at least
// doubles on each reallocation, so all of Get's reallocations together
// stay within twice the final capacity.
func zGrow(out []byte, n int) []byte {
	if cap(out)-len(out) >= n {
		return out
	}
	grown := make([]byte, len(out), max(2*cap(out), len(out)+n))
	copy(grown, out)
	return grown
}

func (c *Compressed) List() ([]string, error) { return c.inner.List() }

func (c *Compressed) Delete(name string) error { return c.inner.Delete(name) }
