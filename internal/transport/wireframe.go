package transport

// The zero-reflection frame path: type-tagged wire frames (internal/wire)
// behind 4-byte length prefixes. The writer appends every frame of a
// flush batch into one pooled buffer and hands the whole batch to the
// socket in a single write; the reader parses frames in place out of its
// read buffer when they fit, so a steady-state frame round trip allocates
// only the decoded payload values. The first byte of every dialed
// connection announces the compression scheme, so the accept side speaks
// whatever the dialer chose.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"eunomia/internal/compress"
	"eunomia/internal/fabric"
	"eunomia/internal/metrics"
	"eunomia/internal/types"
	"eunomia/internal/wire"
)

// Codec magic: the first byte a dialer writes on a fresh connection. It
// announces the negotiated compression scheme — one byte carries the
// whole negotiation, so plain and compressed peers interoperate per
// connection. Any other first byte (including 'G', the retired gob
// codec's) marks a non-fabric peer, whose connection is closed.
const (
	codecMagicWire       = 'W'
	codecMagicWireSnappy = 'S'
	codecMagicWireZstd   = 'Z'
)

// magicFor returns the announcement byte for a dialed connection.
func magicFor(scheme compress.Scheme) byte {
	switch scheme {
	case compress.Snappy:
		return codecMagicWireSnappy
	case compress.Zstd:
		return codecMagicWireZstd
	}
	return codecMagicWire
}

// Record markers: on a compressed connection every length-prefixed
// record starts with one marker byte saying whether the body is a raw
// wire frame (below the size threshold, or compression didn't shrink
// it) or a compressed one.
const (
	recordRaw        = 0x00
	recordCompressed = 0x01
)

// compressCounters aggregates an endpoint's compression byte accounting
// (all connections merged): Raw is the bytes the records would occupy
// uncompressed (length prefixes included), Wire the bytes that actually
// crossed the socket. Raw/Wire is the endpoint's compression ratio; on
// uncompressed connections the two advance in lockstep, so bytes-on-wire
// per operation is measurable in every mode.
type compressCounters struct {
	txRaw, txWire, rxRaw, rxWire atomic.Int64
}

// codecStats aggregates the transport's serialization latency histograms
// (one set per TCP endpoint, all connections merged): frame encode cost,
// frame decode cost, and the socket flush. They feed the Prometheus
// endpoint (cmd/eunomia-server -metrics-addr).
type codecStats struct {
	enc   *metrics.Histogram
	dec   *metrics.Histogram
	flush *metrics.Histogram
}

func newCodecStats() *codecStats {
	return &codecStats{
		enc:   metrics.NewHistogram(),
		dec:   metrics.NewHistogram(),
		flush: metrics.NewHistogram(),
	}
}

// wireFlushChunk bounds the writer's accumulation buffer: a flush batch
// larger than this goes to the socket in more than one write rather than
// growing the buffer without bound.
const wireFlushChunk = 256 << 10

// wireFrameWriter encodes frames into one pooled append buffer and
// flushes it with a single socket write. With a compression scheme, each
// record gains a marker byte and bodies at or above minSize are
// compressed through an owned scratch buffer (kept raw when compression
// does not shrink them), so the steady-state flush path stays at most
// one allocation either way.
type wireFrameWriter struct {
	conn    net.Conn
	buf     []byte
	max     int
	stats   *codecStats
	scheme  compress.Scheme
	minSize int
	scratch []byte // compressed-output scratch, reused across frames
	comp    *compressCounters
}

func newWireFrameWriter(conn net.Conn, maxFrame int, stats *codecStats, withMagic bool,
	scheme compress.Scheme, minSize int, comp *compressCounters) *wireFrameWriter {
	fw := &wireFrameWriter{conn: conn, buf: wire.GetBuf(), max: maxFrame, stats: stats,
		scheme: scheme, minSize: minSize, comp: comp}
	if withMagic {
		fw.buf = append(fw.buf, magicFor(scheme))
	}
	return fw
}

func (fw *wireFrameWriter) write(f *frame) error {
	start := time.Now()
	// Reserve the length prefix (plus the record marker on compressed
	// connections), append the frame, backfill the length: no scratch
	// buffer, no copy on the raw path.
	base := len(fw.buf)
	if fw.scheme == compress.Off {
		fw.buf = append(fw.buf, 0, 0, 0, 0)
	} else {
		fw.buf = append(fw.buf, 0, 0, 0, 0, recordRaw)
	}
	hdr := len(fw.buf) - base
	body, err := appendFrame(fw.buf, f)
	if err != nil {
		// Unserializable payload: permanent, the caller discards the
		// frame. The buffer rolls back so the stream stays intact.
		fw.buf = fw.buf[:base]
		return &encodeError{err}
	}
	fw.buf = body
	n := len(fw.buf) - base - hdr
	if n > fw.max {
		fw.buf = fw.buf[:base]
		return &encodeError{fmt.Errorf("frame length %d exceeds max %d", n, fw.max)}
	}
	if fw.scheme != compress.Off && n >= fw.minSize {
		// Compress the encoded body; keep the raw bytes when the codec
		// fails to shrink them (incompressible payloads must not grow).
		fw.scratch = compress.Compress(fw.scheme, fw.scratch[:0], fw.buf[base+hdr:])
		if len(fw.scratch) < n {
			fw.buf = append(fw.buf[:base+hdr], fw.scratch...)
			fw.buf[base+4] = recordCompressed
		}
	}
	rec := len(fw.buf) - base - 4
	binary.BigEndian.PutUint32(fw.buf[base:], uint32(rec))
	if fw.comp != nil {
		fw.comp.txRaw.Add(int64(n + 4))
		fw.comp.txWire.Add(int64(rec + 4))
	}
	if fw.stats != nil {
		fw.stats.enc.RecordDuration(time.Since(start))
	}
	if len(fw.buf) >= wireFlushChunk {
		return fw.flush()
	}
	return nil
}

func (fw *wireFrameWriter) flush() error {
	if len(fw.buf) == 0 {
		return nil
	}
	start := time.Now()
	_, err := fw.conn.Write(fw.buf)
	if fw.stats != nil {
		fw.stats.flush.RecordDuration(time.Since(start))
	}
	if cap(fw.buf) > wireFlushChunk*2 {
		// One oversized frame must not pin its worst case; swap the
		// buffer back to a pooled one.
		wire.PutBuf(fw.buf)
		fw.buf = wire.GetBuf()
	} else {
		fw.buf = fw.buf[:0]
	}
	if cap(fw.scratch) > wireFlushChunk*2 {
		// Same policy for the compression scratch.
		fw.scratch = nil
	}
	return err
}

// release returns the accumulation buffer to the pool when the connection
// dies, so reconnect churn reuses buffers instead of draining the pool
// into the garbage collector; the writer must not be used afterwards.
func (fw *wireFrameWriter) release() {
	wire.PutBuf(fw.buf)
	fw.buf = nil
}

// wireFrameReader parses length-prefixed wire frames, in place from the
// read buffer when a frame fits, via a pooled spill buffer when not. On
// compressed connections, compressed record bodies are inflated into an
// owned scratch buffer reused across frames; a record that fails to
// decompress is a torn connection, exactly like a corrupt envelope.
type wireFrameReader struct {
	r       *bufio.Reader
	max     int
	spill   []byte
	stats   *codecStats
	scheme  compress.Scheme
	scratch []byte
	comp    *compressCounters
}

func newWireFrameReader(conn net.Conn, maxFrame int, stats *codecStats,
	scheme compress.Scheme, comp *compressCounters) *wireFrameReader {
	return &wireFrameReader{r: bufio.NewReaderSize(conn, 64<<10), max: maxFrame, stats: stats,
		scheme: scheme, comp: comp}
}

func (fr *wireFrameReader) next(f *frame) error {
	var hdr [4]byte
	if _, err := io.ReadFull(fr.r, hdr[:]); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	limit := fr.max
	if fr.scheme != compress.Off {
		limit++ // the record marker byte rides outside the frame budget
	}
	if n <= 0 || n > limit {
		return fmt.Errorf("transport: frame length %d out of range (max %d)", n, fr.max)
	}
	var body []byte
	inPlace := n <= fr.r.Size()
	if inPlace {
		// The frame fits the read buffer: parse it where it lies. The
		// decoders copy whatever the payload retains, so discarding after
		// the parse is safe.
		b, err := fr.r.Peek(n)
		if err != nil {
			return err
		}
		body = b
	} else {
		// Spill buffer for frames beyond the read buffer: owned by this
		// reader and reused across frames, so the shared pool (sized for
		// typical frames) stays out of it.
		if cap(fr.spill) < n {
			fr.spill = make([]byte, n)
		}
		fr.spill = fr.spill[:n]
		if _, err := io.ReadFull(fr.r, fr.spill); err != nil {
			return err
		}
		body = fr.spill
	}
	start := time.Now()
	var err error
	var raw int
	fr.scratch, raw, err = decodeWireRecord(fr.scheme, body, fr.scratch, fr.max, f)
	f.wireBytes = n + 4
	if fr.comp != nil {
		fr.comp.rxWire.Add(int64(n + 4))
		fr.comp.rxRaw.Add(int64(raw + 4))
	}
	if fr.stats != nil {
		fr.stats.dec.RecordDuration(time.Since(start))
	}
	if inPlace {
		if _, derr := fr.r.Discard(n); derr != nil && err == nil {
			err = derr
		}
	}
	return err
}

func (fr *wireFrameReader) buffered() int { return fr.r.Buffered() }

// decodeWireRecord parses one length-stripped record as read off a
// wire-codec connection negotiated with the given scheme. For compress.Off
// the record is the frame body itself; otherwise a marker byte selects a
// raw or compressed body, the latter inflating through scratch (returned
// for reuse). raw is the decoded frame-body size — what the record would
// have cost uncompressed. Corrupt markers, truncated or tampered
// compressed payloads, and dishonest decoded lengths all error, never
// panic: the connection owner tears the socket down as after any other
// framing error.
func decodeWireRecord(scheme compress.Scheme, body, scratch []byte, maxFrame int, f *frame) ([]byte, int, error) {
	if scheme == compress.Off {
		return scratch, len(body), decodeFrame(body, f)
	}
	if len(body) < 1 {
		return scratch, 0, fmt.Errorf("transport: empty record")
	}
	switch body[0] {
	case recordRaw:
		return scratch, len(body) - 1, decodeFrame(body[1:], f)
	case recordCompressed:
		var err error
		scratch, err = compress.Decompress(scheme, scratch[:0], body[1:])
		if err != nil {
			return scratch, 0, fmt.Errorf("transport: frame decompress: %w", err)
		}
		if len(scratch) > maxFrame {
			return scratch, 0, fmt.Errorf("transport: decompressed frame length %d exceeds max %d", len(scratch), maxFrame)
		}
		return scratch, len(scratch), decodeFrame(scratch, f)
	default:
		return scratch, 0, fmt.Errorf("transport: unknown record marker %#x", body[0])
	}
}

// appendFrame encodes one frame envelope (and, for data frames, its
// type-tagged payload) after the length prefix the writer manages.
func appendFrame(b []byte, f *frame) ([]byte, error) {
	b = append(b, byte(f.Kind))
	switch f.Kind {
	case frameHello:
		b = wire.AppendString(b, f.Process)
		b = wire.AppendString(b, f.Advertise)
		return b, nil
	case frameAck:
		return wire.AppendUvarint(b, f.Ack), nil
	case frameData:
		b = wire.AppendUvarint(b, f.Seq)
		b = appendAddr(b, f.From)
		b = appendAddr(b, f.To)
		b = wire.AppendUint64(b, uint64(f.SentAt.UnixNano()))
		return wire.AppendPayload(b, f.Payload)
	}
	return b, fmt.Errorf("transport: unknown frame kind %d", f.Kind)
}

// decodeFrame parses one frame body. Corrupt envelopes and payloads
// error (never panic); the connection owner tears the socket down and
// the window protocol retransmits, exactly as after a socket error.
func decodeFrame(body []byte, f *frame) error {
	*f = frame{}
	d := wire.NewDec(body)
	f.Kind = int8(d.Byte())
	switch f.Kind {
	case frameHello:
		f.Process = d.String()
		f.Advertise = d.String()
	case frameAck:
		f.Ack = d.Uvarint()
	case frameData:
		f.Seq = d.Uvarint()
		f.From = readAddr(&d)
		f.To = readAddr(&d)
		f.SentAt = time.Unix(0, int64(d.Uint64()))
		if d.Err() == nil {
			p, err := wire.ReadPayload(&d)
			if err != nil {
				return fmt.Errorf("transport: %w", err)
			}
			f.Payload = p
		}
	default:
		return fmt.Errorf("transport: unknown frame kind %d", f.Kind)
	}
	if err := d.Expect(); err != nil {
		return fmt.Errorf("transport: frame: %w", err)
	}
	return nil
}

func appendAddr(b []byte, a fabric.Addr) []byte {
	b = wire.AppendUvarint(b, uint64(a.DC))
	return wire.AppendString(b, a.Name)
}

func readAddr(d *wire.Dec) fabric.Addr {
	return fabric.Addr{DC: types.DCID(d.Uvarint()), Name: d.String()}
}
