package transport

import (
	"encoding/binary"
	"net"
	"reflect"
	"testing"
	"time"

	"eunomia/internal/compress"
	"eunomia/internal/fabric"
	"eunomia/internal/hlc"
	"eunomia/internal/types"
	"eunomia/internal/vclock"
	"eunomia/internal/wire"
)

// codecPayloads is one instance of every protocol payload the fabric
// ships, with every field populated — the round-trip corpus every
// compression scheme must carry byte-identically.
func codecPayloads() []any {
	u := &types.Update{
		Key: "k1", Value: []byte("v1"), Origin: 1, Partition: 3, Seq: 9,
		TS: hlc.Timestamp(42e12) << 16, HTS: hlc.Timestamp(42e12)<<16 | 1,
		VTS: vclock.V{5, 0, hlc.Timestamp(42e12) << 16}, CreatedAt: 1753900000000000001,
	}
	return []any{
		[]*types.Update{u, u.Meta()},
		fabric.MultiBatchMsg{Batches: []types.PartitionBatch{
			{Partition: 2, Base: u.TS - 2, Ops: []*types.Update{u}, Mark: u.TS + 1},
			{Partition: 4, Mark: u.TS - 1},
		}},
		fabric.MultiAckMsg{Acks: []types.PartitionMark{{Partition: 2, TS: u.TS}}, Err: "boom"},
		testMsg{N: 77},
	}
}

// TestCodecRoundTripTCP sends every protocol payload across a real
// socket under each dial scheme (every frame compressed where the scheme
// compresses) and checks exact structural equality after decode.
func TestCodecRoundTripTCP(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme compress.Scheme
	}{{"wire", compress.Off}, {"wire-snappy", compress.Snappy}, {"wire-zstd", compress.Zstd}} {
		t.Run(tc.name, func(t *testing.T) {
			server := listen(t, Config{})
			defer server.Close()
			dst := fabric.ReceiverAddr(1)
			col := &collector{}
			server.Register(dst, col.handle)

			client := listen(t, Config{Compress: tc.scheme, CompressMin: -1,
				Routes: map[fabric.Addr]string{dst: server.Addr().String()}})
			defer client.Close()

			want := codecPayloads()
			src := fabric.PartitionAddr(0, 0)
			for _, p := range want {
				client.Send(src, dst, p)
			}
			waitFor(t, 5*time.Second, func() bool { return col.len() == len(want) })
			for i, m := range col.snapshot() {
				if !reflect.DeepEqual(m.Payload, want[i]) {
					t.Fatalf("payload %d over %s:\n got %#v\nwant %#v", i, tc.name, m.Payload, want[i])
				}
				if m.From != src || m.To != dst {
					t.Fatalf("addressing corrupted: %v→%v", m.From, m.To)
				}
			}
		})
	}
}

// TestMixedCodecPeersInteroperate runs a plain wire dialer and a
// snappy-compressed dialer against one server at once: the magic byte
// lets the accept side speak each dialer's scheme per connection, so
// mixed deployments work during a rollout.
func TestMixedCodecPeersInteroperate(t *testing.T) {
	server := listen(t, Config{})
	defer server.Close()
	dst := fabric.ReceiverAddr(1)
	col := &collector{}
	server.Register(dst, col.handle)

	plainClient := listen(t, Config{Routes: map[fabric.Addr]string{dst: server.Addr().String()}})
	defer plainClient.Close()
	snappyClient := listen(t, Config{Compress: compress.Snappy, CompressMin: -1,
		Routes: map[fabric.Addr]string{dst: server.Addr().String()}})
	defer snappyClient.Close()

	const n = 50
	for i := 0; i < n; i++ {
		plainClient.Send(fabric.PartitionAddr(0, 0), dst, testMsg{N: i})
		snappyClient.Send(fabric.PartitionAddr(0, 1), dst, testMsg{N: 1000 + i})
	}
	waitFor(t, 5*time.Second, func() bool { return col.len() == 2*n })

	var plainSeen, snappySeen []int
	for _, m := range col.snapshot() {
		v := m.Payload.(testMsg).N
		if v < 1000 {
			plainSeen = append(plainSeen, v)
		} else {
			snappySeen = append(snappySeen, v-1000)
		}
	}
	for i := 0; i < n; i++ {
		if plainSeen[i] != i || snappySeen[i] != i {
			t.Fatalf("per-sender FIFO broken at %d (plain=%v snappy=%v)", i, plainSeen[i], snappySeen[i])
		}
	}
}

// TestUnregisteredPayloadDroppedNotWedged sends a payload type the wire
// codec does not know: the frame must be discarded (permanent encode
// error) without wedging the stream for later, encodable frames.
func TestUnregisteredPayloadDroppedNotWedged(t *testing.T) {
	server := listen(t, Config{})
	defer server.Close()
	dst := fabric.ReceiverAddr(1)
	col := &collector{}
	server.Register(dst, col.handle)

	client := listen(t, Config{Routes: map[fabric.Addr]string{dst: server.Addr().String()}})
	defer client.Close()

	type unregistered struct{ X int }
	src := fabric.PartitionAddr(0, 0)
	client.Send(src, dst, unregistered{X: 1})
	client.Send(src, dst, testMsg{N: 42})
	waitFor(t, 5*time.Second, func() bool { return col.len() == 1 })
	if got := col.snapshot()[0].Payload.(testMsg).N; got != 42 {
		t.Fatalf("delivered %v, want the encodable frame", got)
	}
	waitFor(t, 5*time.Second, func() bool { return client.Dropped.Load() >= 1 })
}

// TestCorruptWireFrameClosesConnection feeds a listener a valid magic
// byte and hello followed by a garbage frame: the connection must be torn
// down (no panic, no delivery), and the window protocol's retransmission
// on a fresh connection is what heals real streams.
func TestCorruptWireFrameClosesConnection(t *testing.T) {
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
	buf = append(buf, codecMagicWire)
	hello := []byte{byte(frameHello)}
	hello = wire.AppendString(hello, "evil-proc")
	hello = wire.AppendString(hello, "")
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(hello)))
	buf = append(buf, hello...)
	// A data frame whose payload tag is garbage.
	data := []byte{byte(frameData)}
	data = wire.AppendUvarint(data, 1)           // seq
	data = wire.AppendUvarint(data, 0)           // from dc
	data = wire.AppendString(data, "partition0") // from name
	data = wire.AppendUvarint(data, 1)           // to dc
	data = wire.AppendString(data, "receiver")   // to name
	data = wire.AppendUint64(data, uint64(time.Now().UnixNano()))
	data = wire.AppendUvarint(data, 59999) // unknown tag
	data = append(data, 0xde, 0xad)        // junk body
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(data)))
	buf = append(buf, data...)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}

	// The server must close the connection on the corrupt frame.
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	one := make([]byte, 1)
	if _, err := conn.Read(one); err == nil {
		// An ack may arrive first; the close must still follow.
		if _, err = conn.Read(one); err == nil {
			t.Fatal("connection stayed open after a corrupt frame")
		}
	}
	if col.len() != 0 {
		t.Fatalf("corrupt frame was delivered: %v", col.snapshot())
	}
}

// TestCodecStatsRecordSamples checks the latency histograms fill under
// traffic — the plumbing the Prometheus endpoint exports.
func TestCodecStatsRecordSamples(t *testing.T) {
	server := listen(t, Config{})
	defer server.Close()
	dst := fabric.ReceiverAddr(1)
	col := &collector{}
	server.Register(dst, col.handle)

	client := listen(t, Config{Routes: map[fabric.Addr]string{dst: server.Addr().String()}})
	defer client.Close()

	const n = 64
	for i := 0; i < n; i++ {
		client.Send(fabric.PartitionAddr(0, 0), dst, testMsg{N: i})
	}
	waitFor(t, 5*time.Second, func() bool { return col.len() == n })

	enc, _, flush := client.CodecStats()
	if enc.Count() < n {
		t.Fatalf("encode histogram has %d samples, want >= %d", enc.Count(), n)
	}
	if flush.Count() == 0 {
		t.Fatal("flush histogram empty")
	}
	_, dec, _ := server.CodecStats()
	if dec.Count() == 0 {
		t.Fatal("decode histogram empty on the receiving side")
	}
}

// TestHoldDeliveryRetainsBootFrames pins the boot race the server
// harness closes with Config.HoldDelivery: frames streamed at a process
// whose endpoints are not yet registered must not be acknowledged-and-
// dropped — they deliver, in order, once Ready runs. Without the hold,
// send-once edges (stable-metadata ships, payload batches) lose their
// prefix to a slow boot for good.
func TestHoldDeliveryRetainsBootFrames(t *testing.T) {
	server := listen(t, Config{HoldDelivery: true})
	defer server.Close()
	dst := fabric.ReceiverAddr(1)

	client := listen(t, Config{Routes: map[fabric.Addr]string{dst: server.Addr().String()}})
	defer client.Close()

	const n = 20
	src := fabric.PartitionAddr(0, 0)
	for i := 0; i < n; i++ {
		client.Send(src, dst, testMsg{N: i})
	}
	// The held server must not consume anything: the client's window
	// keeps every frame unacknowledged.
	time.Sleep(200 * time.Millisecond)
	if got := server.Delivered.Load() + server.Dropped.Load(); got != 0 {
		t.Fatalf("held server consumed %d frames before Ready", got)
	}

	// Boot completes: register the endpoint, then release delivery.
	col := &collector{}
	server.Register(dst, col.handle)
	server.Ready()
	waitFor(t, 5*time.Second, func() bool { return col.len() == n })
	for i, m := range col.snapshot() {
		if m.Payload.(testMsg).N != i {
			t.Fatalf("boot-held frames out of order at %d: %v", i, m.Payload)
		}
	}
	if server.Dropped.Load() != 0 {
		t.Fatalf("%d frames dropped across the held boot", server.Dropped.Load())
	}
}

// TestHoldDeliveryCloseUnblocks checks a held endpoint that is closed
// before ever becoming ready releases its inbound connections instead of
// leaking them.
func TestHoldDeliveryCloseUnblocks(t *testing.T) {
	server := listen(t, Config{HoldDelivery: true})
	dst := fabric.ReceiverAddr(1)
	client := listen(t, Config{Routes: map[fabric.Addr]string{dst: server.Addr().String()}})
	defer client.Close()
	client.Send(fabric.PartitionAddr(0, 0), dst, testMsg{N: 1})

	done := make(chan struct{})
	go func() { server.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close wedged on a held inbound connection")
	}
}

// TestReadyIdempotentWithoutHold pins Ready's documented contract: a
// no-op (not a double-close panic) on a transport that never held.
func TestReadyIdempotentWithoutHold(t *testing.T) {
	f := listen(t, Config{})
	defer f.Close()
	f.Ready()
	f.Ready()
}
