package transport

// Compression negotiation tests: the one-byte announcement must keep
// every dialer/listener combination interoperable — wire-off, snappy,
// and zstd dialers against compress-enabled and plain listeners — and
// must refuse a dialer announcing anything else, such as the retired gob
// codec. Plus the byte accounting the WAN benchmarks ride on and the
// allocation guard for the compressed flush path.

import (
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"eunomia/internal/compress"
	"eunomia/internal/fabric"
	"eunomia/internal/hlc"
	"eunomia/internal/racedetect"
	"eunomia/internal/types"
	"eunomia/internal/wire"
)

// compressibleBatch is a protocol-shaped payload big enough to clear the
// default compression threshold: the self-similar metadata batches the
// aggregator tree ships are exactly what the codecs feast on.
func compressibleBatch(n int) fabric.MultiBatchMsg {
	ops := make([]*types.Update, n)
	for i := range ops {
		ops[i] = &types.Update{
			Partition: 3, Seq: uint64(i + 1),
			TS: hlc.Timestamp(1753900000000000+i) << 16,
		}
	}
	return fabric.MultiBatchMsg{Batches: []types.PartitionBatch{{Partition: 3, Ops: ops}}}
}

// TestCompressionMatrixInteroperates runs every dialer scheme (wire
// uncompressed, snappy, zstd) against listeners configured with and
// without compression: the dialer's announcement byte decides each
// connection, so every combination must deliver everything intact. The
// gob column dials with the retired gob codec's announcement byte: the
// listener must close that connection without delivering its frames,
// and a wire peer on the same listener must keep working.
func TestCompressionMatrixInteroperates(t *testing.T) {
	listenerCfgs := []struct {
		name string
		cfg  Config
	}{
		{"wire-off", Config{}},
		{"wire-zstd", Config{Compress: compress.Zstd}},
	}
	dialerCfgs := []struct {
		name string
		cfg  Config
		// refused, if set, is a foreign announcement byte dialed first.
		refused byte
	}{
		{"wire-off", Config{}, 0},
		{"wire-snappy", Config{Compress: compress.Snappy, CompressMin: -1}, 0},
		{"wire-zstd", Config{Compress: compress.Zstd, CompressMin: -1}, 0},
		{"gob", Config{}, 'G'},
	}
	for _, lc := range listenerCfgs {
		for _, dc := range dialerCfgs {
			t.Run(lc.name+"/"+dc.name, func(t *testing.T) {
				server := listen(t, lc.cfg)
				defer server.Close()
				dst := fabric.ReceiverAddr(1)
				col := &collector{}
				server.Register(dst, col.handle)
				if dc.refused != 0 {
					assertRefused(t, server.Addr().String(), dc.refused, dst)
					if col.len() != 0 {
						t.Fatalf("refused dialer's frames were delivered: %v", col.snapshot())
					}
				}

				cfg := dc.cfg
				cfg.Routes = map[fabric.Addr]string{dst: server.Addr().String()}
				client := listen(t, cfg)
				defer client.Close()

				src := fabric.PartitionAddr(0, 0)
				frame := compressibleBatch(64)
				want := frame.Batches[0].Ops
				const n = 20
				for i := 0; i < n; i++ {
					client.Send(src, dst, testMsg{N: i})
					client.Send(src, dst, frame)
				}
				waitFor(t, 5*time.Second, func() bool { return col.len() == 2*n })
				msgs := col.snapshot()
				for i := 0; i < n; i++ {
					if got := msgs[2*i].Payload.(testMsg).N; got != i {
						t.Fatalf("FIFO broken at %d: got %d", i, got)
					}
					batch := msgs[2*i+1].Payload.(fabric.MultiBatchMsg).Batches[0]
					if len(batch.Ops) != len(want) || batch.Ops[7].Seq != want[7].Seq ||
						batch.Ops[7].TS != want[7].TS {
						t.Fatalf("batch %d corrupted across %s→%s", i, dc.name, lc.name)
					}
				}
			})
		}
	}
}

// assertRefused dials addr and announces magic: a listener that does not
// speak it must close the connection on the announcement alone. The
// well-formed wire hello and data frame sent afterwards must go nowhere.
func assertRefused(t *testing.T, addr string, magic byte, dst fabric.Addr) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte{magic}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	one := make([]byte, 1)
	if n, err := conn.Read(one); err == nil {
		t.Fatalf("listener answered a %q dialer (%d bytes) instead of closing", magic, n)
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("listener kept a %q dialer's connection open", magic)
	}

	hello := []byte{byte(frameHello)}
	hello = wire.AppendString(hello, "foreign-proc")
	hello = wire.AppendString(hello, "")
	buf := binary.BigEndian.AppendUint32(nil, uint32(len(hello)))
	buf = append(buf, hello...)
	data, err := appendFrame(nil, &frame{Kind: frameData, Seq: 1,
		From: fabric.PartitionAddr(0, 0), To: dst, SentAt: time.Now(), Payload: testMsg{N: 1}})
	if err != nil {
		t.Fatal(err)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(data)))
	buf = append(buf, data...)
	_, _ = conn.Write(buf) // the socket is closed at the far end; errors are expected
}

// TestCompressStatsCounters pins the byte accounting end to end: the
// sender's pre/post-compress counters show a real reduction on
// compressible traffic, the receiver's mirror them, and an uncompressed
// connection advances both sides in lockstep (so bytes-on-wire is
// measurable in every mode).
func TestCompressStatsCounters(t *testing.T) {
	for _, scheme := range []compress.Scheme{compress.Off, compress.Snappy, compress.Zstd} {
		t.Run(scheme.String(), func(t *testing.T) {
			server := listen(t, Config{})
			defer server.Close()
			dst := fabric.ReceiverAddr(1)
			col := &collector{}
			server.Register(dst, col.handle)

			client := listen(t, Config{Compress: scheme,
				Routes: map[fabric.Addr]string{dst: server.Addr().String()}})
			defer client.Close()

			const n = 32
			for i := 0; i < n; i++ {
				client.Send(fabric.PartitionAddr(0, 0), dst, compressibleBatch(128))
			}
			waitFor(t, 5*time.Second, func() bool { return col.len() == n })

			tx := client.CompressStats()
			if tx.TxRaw == 0 || tx.TxWire == 0 {
				t.Fatalf("tx counters did not advance: %+v", tx)
			}
			switch scheme {
			case compress.Off:
				if tx.TxRaw != tx.TxWire {
					t.Fatalf("uncompressed connection: raw %d != wire %d", tx.TxRaw, tx.TxWire)
				}
			default:
				if ratio := float64(tx.TxRaw) / float64(tx.TxWire); ratio < 2 {
					t.Fatalf("%v compressed %d raw bytes to %d on wire (ratio %.2f), want >= 2x",
						scheme, tx.TxRaw, tx.TxWire, ratio)
				}
			}
			// The receive side accounts the same records. Acks flow the
			// other way on the same connection, so compare only the
			// client→server direction.
			waitFor(t, 5*time.Second, func() bool {
				rx := server.CompressStats()
				return rx.RxWire >= tx.TxWire-8 && rx.RxRaw >= tx.TxRaw-8
			})
		})
	}
}

// TestCompressMinThreshold pins the size gate: frames below CompressMin
// (heartbeats, acks) ship raw even on a compressed connection, so the
// latency-critical small-frame path never pays a codec.
func TestCompressMinThreshold(t *testing.T) {
	server := listen(t, Config{})
	defer server.Close()
	dst := fabric.ReceiverAddr(1)
	col := &collector{}
	server.Register(dst, col.handle)

	client := listen(t, Config{Compress: compress.Snappy, CompressMin: 1 << 20,
		Routes: map[fabric.Addr]string{dst: server.Addr().String()}})
	defer client.Close()

	const n = 16
	for i := 0; i < n; i++ {
		client.Send(fabric.PartitionAddr(0, 0), dst, compressibleBatch(128))
	}
	waitFor(t, 5*time.Second, func() bool { return col.len() == n })
	tx := client.CompressStats()
	// Every record stayed raw: wire bytes exceed raw bytes by exactly the
	// one marker byte per record — any compression of a 128-update batch
	// would save far more than that.
	if tx.TxWire < tx.TxRaw || tx.TxWire > tx.TxRaw+64 {
		t.Fatalf("sub-threshold frames were compressed: raw %d wire %d", tx.TxRaw, tx.TxWire)
	}
}

// TestCorruptCompressedRecordClosesConnection mirrors
// TestCorruptWireFrameClosesConnection for the compressed framing: a
// record whose compressed body is garbage must tear the connection down,
// never deliver, never panic.
func TestCorruptCompressedRecordClosesConnection(t *testing.T) {
	server := listen(t, Config{})
	defer server.Close()
	dst := fabric.ReceiverAddr(1)
	col := &collector{}
	server.Register(dst, col.handle)

	conn, err := net.Dial("tcp", server.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var buf []byte
	buf = append(buf, codecMagicWireSnappy)
	hello := []byte{recordRaw, byte(frameHello)}
	hello = wire.AppendString(hello, "evil-proc")
	hello = wire.AppendString(hello, "")
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(hello)))
	buf = append(buf, hello...)
	// A compressed record whose body is not valid snappy.
	junk := []byte{recordCompressed, 0xde, 0xad, 0xbe, 0xef, 0xff, 0xff}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(junk)))
	buf = append(buf, junk...)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}

	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	one := make([]byte, 1)
	if _, err := conn.Read(one); err == nil {
		// An ack may arrive first; the close must still follow.
		if _, err = conn.Read(one); err == nil {
			t.Fatal("connection stayed open after a corrupt compressed record")
		}
	}
	if col.len() != 0 {
		t.Fatalf("corrupt record was delivered: %v", col.snapshot())
	}
}

// TestListenRejectsUnknownScheme pins fail-fast configuration: an
// out-of-range compression scheme is a Listen-time error, not a
// mis-framed stream discovered in production.
func TestListenRejectsUnknownScheme(t *testing.T) {
	_, err := Listen(Config{Listen: "127.0.0.1:0", Compress: compress.Scheme(99)})
	if err == nil || !strings.Contains(err.Error(), "compress") {
		t.Fatalf("Listen accepted an unknown compression scheme (err=%v)", err)
	}
}

// discardConn is a net.Conn that swallows writes — the allocation guard
// below measures the encoder, not the kernel.
type discardConn struct{ net.Conn }

func (discardConn) Write(b []byte) (int, error) { return len(b), nil }
func (discardConn) Close() error                { return nil }
func (discardConn) SetDeadline(time.Time) error { return nil }
func (discardConn) LocalAddr() net.Addr         { return nil }
func (discardConn) RemoteAddr() net.Addr        { return nil }

// TestCompressedFlushAllocs pins the steady-state compressed write+flush
// path at no more than one allocation per frame, same budget as the
// uncompressed hot path: the record marker, compression scratch, and
// accumulation buffer are all reused across flushes.
func TestCompressedFlushAllocs(t *testing.T) {
	batch := compressibleBatch(256)
	for _, scheme := range []compress.Scheme{compress.Snappy, compress.Zstd} {
		t.Run(scheme.String(), func(t *testing.T) {
			if scheme == compress.Zstd && racedetect.Enabled {
				t.Skip("the DEFLATE coders come from a sync.Pool, which the race runtime drains on purpose; the bound is checked without -race")
			}
			fw := newWireFrameWriter(discardConn{}, 64<<20, nil, false, scheme, 0, &compressCounters{})
			f := &frame{
				Kind: frameData, Seq: 1,
				From: fabric.PartitionAddr(0, 3), To: fabric.AggregatorAddr(0, 0),
				SentAt: time.Unix(0, 1753900000000000000), Payload: batch,
			}
			// Warm the buffers (first write grows buf and scratch).
			for i := 0; i < 4; i++ {
				f.Seq++
				if err := fw.write(f); err != nil {
					t.Fatal(err)
				}
				if err := fw.flush(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(100, func() {
				f.Seq++
				if err := fw.write(f); err != nil {
					t.Fatal(err)
				}
				if err := fw.flush(); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 1 {
				t.Fatalf("compressed write+flush allocates %.1f times per frame, budget 1", allocs)
			}
		})
	}
}
