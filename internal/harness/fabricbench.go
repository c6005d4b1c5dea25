package harness

// Fabric-level benchmarks: the transport experiments behind the
// deployment figures. PipelineBench quantifies what the pipelined,
// windowed-acknowledgement wire protocol buys over the original
// one-request-one-response protocol on a real TCP link; ReleaseBench
// measures the windowed receiver→partition release stream's apply
// throughput in a split-role datacenter.

import (
	"fmt"
	"sync/atomic"
	"time"

	"eunomia/internal/fabric"
	"eunomia/internal/geostore"
	"eunomia/internal/simnet"
	"eunomia/internal/transport"
	"eunomia/internal/types"
	"eunomia/internal/wire"
)

// benchPing is the unit message both transport legs ship.
type benchPing struct {
	Seq  uint64
	Data []byte
}

// benchPong acknowledges one ping in the request/response leg.
type benchPong struct {
	Seq uint64
}

// WireTag implements wire.Marshaler.
func (m benchPing) WireTag() wire.Tag { return wire.TagBenchPing }

// AppendWire implements wire.Marshaler.
func (m benchPing) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, m.Seq)
	return wire.AppendBytes(b, m.Data)
}

// WireTag implements wire.Marshaler.
func (m benchPong) WireTag() wire.Tag { return wire.TagBenchPong }

// AppendWire implements wire.Marshaler.
func (m benchPong) AppendWire(b []byte) []byte {
	return wire.AppendUvarint(b, m.Seq)
}

func init() {
	wire.Register(wire.TagBenchPing, func(d *wire.Dec) any {
		return benchPing{Seq: d.Uvarint(), Data: d.Bytes()}
	})
	wire.Register(wire.TagBenchPong, func(d *wire.Dec) any {
		return benchPong{Seq: d.Uvarint()}
	})
}

// PipelineBenchOptions parameterises the TCP protocol comparison.
type PipelineBenchOptions struct {
	// Messages is the pipelined leg's message count (default 2000). The
	// request/response leg uses Messages/10 (min 200): it is RTT-bound
	// and throughput is reported per second either way.
	Messages int
	// PayloadBytes sizes each message's body (default 128).
	PayloadBytes int
}

func (o *PipelineBenchOptions) fill() {
	if o.Messages <= 0 {
		o.Messages = 2000
	}
	if o.PayloadBytes <= 0 {
		o.PayloadBytes = 128
	}
}

// PipelineBenchResult reports both protocols' throughput over one real
// TCP connection on loopback.
type PipelineBenchResult struct {
	PipelinedPerSec       float64
	RequestResponsePerSec float64
	// Speedup is PipelinedPerSec / RequestResponsePerSec.
	Speedup float64
}

// PipelineBench measures the pipelined wire protocol against an emulated
// request/response protocol (send one message, wait for the peer's
// application-level reply before the next) between two TCP fabric
// endpoints on loopback.
func PipelineBench(o PipelineBenchOptions) (PipelineBenchResult, error) {
	o.fill()
	sender, err := transport.Listen(transport.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		return PipelineBenchResult{}, err
	}
	defer sender.Close()
	sink, err := transport.Listen(transport.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		return PipelineBenchResult{}, err
	}
	defer sink.Close()

	srcAddr := fabric.Addr{DC: 0, Name: "bench-src"}
	pipeAddr := fabric.Addr{DC: 0, Name: "bench-sink-pipe"}
	rrAddr := fabric.Addr{DC: 0, Name: "bench-sink-rr"}
	sinkHost := sink.Addr().String()
	sender.AddRoute(pipeAddr, sinkHost)
	sender.AddRoute(rrAddr, sinkHost)

	// Pipelined sink: count arrivals, signal at each target.
	var got atomic.Uint64
	target := make(chan uint64, 4)
	pipeDone := make(chan struct{}, 4)
	sink.Register(pipeAddr, func(m fabric.Message) {
		n := got.Add(1)
		select {
		case want := <-target:
			if n < want {
				target <- want
				return
			}
			pipeDone <- struct{}{}
		default:
		}
	})
	// Request/response sink: one reply per ping.
	sink.Register(rrAddr, func(m fabric.Message) {
		ping, ok := m.Payload.(benchPing)
		if !ok {
			return
		}
		sink.Send(rrAddr, m.From, benchPong{Seq: ping.Seq})
	})
	pongs := make(chan uint64, 16)
	sender.Register(srcAddr, func(m fabric.Message) {
		if pong, ok := m.Payload.(benchPong); ok {
			pongs <- pong.Seq
		}
	})

	payload := make([]byte, o.PayloadBytes)
	deadline := time.After(60 * time.Second)

	// Warm both paths first: dial and hello exchange.
	target <- 1
	sender.Send(srcAddr, pipeAddr, benchPing{Data: payload})
	select {
	case <-pipeDone:
	case <-deadline:
		return PipelineBenchResult{}, fmt.Errorf("pipeline warmup stalled")
	}
	sender.Send(srcAddr, rrAddr, benchPing{Data: payload})
	select {
	case <-pongs:
	case <-deadline:
		return PipelineBenchResult{}, fmt.Errorf("request/response warmup stalled")
	}

	// Pipelined leg: stream every message, wait for the last delivery.
	base := got.Load()
	target <- base + uint64(o.Messages)
	start := time.Now()
	for i := 0; i < o.Messages; i++ {
		sender.Send(srcAddr, pipeAddr, benchPing{Seq: uint64(i), Data: payload})
	}
	select {
	case <-pipeDone:
	case <-deadline:
		return PipelineBenchResult{}, fmt.Errorf("pipelined leg stalled")
	}
	pipedPerSec := float64(o.Messages) / time.Since(start).Seconds()

	// Request/response leg: one in flight at a time.
	rrN := o.Messages / 10
	if rrN < 200 {
		rrN = 200
	}
	start = time.Now()
	for i := 0; i < rrN; i++ {
		sender.Send(srcAddr, rrAddr, benchPing{Seq: uint64(i), Data: payload})
		select {
		case <-pongs:
		case <-deadline:
			return PipelineBenchResult{}, fmt.Errorf("request/response leg stalled at %d", i)
		}
	}
	rrPerSec := float64(rrN) / time.Since(start).Seconds()

	return PipelineBenchResult{
		PipelinedPerSec:       pipedPerSec,
		RequestResponsePerSec: rrPerSec,
		Speedup:               pipedPerSec / rrPerSec,
	}, nil
}

// ReleaseBenchOptions parameterises the split-role release benchmark.
type ReleaseBenchOptions struct {
	// Updates is how many remote updates the run replicates
	// (default 200).
	Updates int
	// LinkDelay is the simulated one-way delay on every fabric link
	// (default 1ms).
	LinkDelay time.Duration
	// Window bounds the release stream's in-flight releases (default 256).
	Window int
	// Partitions per datacenter (default 4).
	Partitions int
}

func (o *ReleaseBenchOptions) fill() {
	if o.Updates <= 0 {
		o.Updates = 200
	}
	if o.LinkDelay <= 0 {
		o.LinkDelay = time.Millisecond
	}
	if o.Partitions <= 0 {
		o.Partitions = 4
	}
}

// ReleaseBenchResult reports remote apply throughput at a split-role
// datacenter.
type ReleaseBenchResult struct {
	WindowedPerSec float64
}

// ReleaseBench builds a two-datacenter deployment whose destination
// datacenter is split by role — receiver in one fabric process, partition
// group in another, every link carrying LinkDelay — and measures how fast
// updates originated at the other datacenter become visible through the
// windowed release stream.
func ReleaseBench(o ReleaseBenchOptions) (ReleaseBenchResult, error) {
	o.fill()
	delay := o.LinkDelay
	net := simnet.New(func(from, to fabric.Addr) time.Duration { return delay })

	var applied atomic.Int64
	done := make(chan struct{}, 1)
	destCfg := geostore.Config{
		DCs:        2,
		Partitions: o.Partitions,
		OnVisible: func(dest types.DCID, u *types.Update, arrived time.Time) {
			if dest == 0 && int(applied.Add(1)) == o.Updates {
				done <- struct{}{}
			}
		},
	}
	originCfg := geostore.Config{DCs: 2, Partitions: o.Partitions}

	parts := geostore.NewNode(geostore.NodeConfig{
		Config: destCfg, DC: 0, Roles: geostore.RolePartitions | geostore.RoleEunomia, Fabric: net,
	})
	recv := geostore.NewNode(geostore.NodeConfig{
		Config: destCfg, DC: 0, Roles: geostore.RoleReceiver, Fabric: net,
		ReleaseWindow: o.Window,
	})
	origin := geostore.NewNode(geostore.NodeConfig{
		Config: originCfg, DC: 1, Roles: geostore.RoleAll, Fabric: net,
	})
	nodes := []*geostore.Node{parts, recv, origin}
	defer func() {
		for _, n := range nodes {
			n.CloseIngress()
		}
		for _, n := range nodes {
			n.CloseServices()
		}
		net.Close()
	}()

	c := origin.NewClient()
	start := time.Now()
	for i := 0; i < o.Updates; i++ {
		if err := c.Update(types.Key(fmt.Sprintf("bench%d", i)), []byte("v")); err != nil {
			return ReleaseBenchResult{}, err
		}
	}
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		return ReleaseBenchResult{}, fmt.Errorf("only %d/%d updates visible", applied.Load(), o.Updates)
	}
	return ReleaseBenchResult{WindowedPerSec: float64(o.Updates) / time.Since(start).Seconds()}, nil
}
