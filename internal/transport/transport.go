// Package transport is the real-network implementation of the message
// fabric (internal/fabric): it runs the same deployment code the simulated
// WAN runs, over actual TCP sockets, the way the paper's prototype ran its
// standalone Eunomia service inside a datacenter.
//
// The wire protocol is pipelined and length-framed. Each ordered pair of
// processes shares one connection owned by a single writer goroutine:
// messages are encoded with the zero-reflection wire codec
// (internal/wire) — type-tagged binary frames behind a 4-byte length
// prefix — assigned a per-peer sequence number, and streamed without
// waiting for responses; a whole flush batch reaches the socket in a
// single write from one pooled buffer. The receiver returns cumulative
// acknowledgements (windowed: at least one ack per quarter window, and
// whenever the pipe drains); the sender keeps unacknowledged frames
// buffered and retransmits them after a reconnect. Sends block only when
// the unacknowledged window is full — backpressure, not round trips.
// This replaces the original one-request-one-response protocol, in which
// every flush paid a full RTT before the next batch could be sent.
//
// The dialer announces the connection's compression scheme in the first
// byte of every connection, so the accept side speaks whatever the dialer
// chose and mixed-compression deployments interoperate. A connection
// opening with any other byte is not a fabric peer and is closed.
//
// Delivery semantics match what the protocols tolerate (and what simnet
// provides): FIFO per ordered process pair, at-least-once across process
// restarts (a receiver that crashes loses its duplicate-filter state, so
// retransmitted frames can be delivered twice — replicas deduplicate by
// partition watermark, receivers by origin timestamp, partitions by update
// id).
//
// Routing is static-first (exact endpoint routes, then datacenter-wildcard
// routes) with learned fallback: every connection opens with a hello frame
// advertising the dialer's listen address, and source addresses seen on
// that connection become dialable reply routes. Endpoints hosted by this
// process are short-circuited through an in-process zero-delay loopback.
package transport

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eunomia/internal/compress"
	"eunomia/internal/fabric"
	"eunomia/internal/faults"
	"eunomia/internal/metrics"
	"eunomia/internal/simnet"
	"eunomia/internal/types"
	"eunomia/internal/wan"
)

// Config parameterises a TCP fabric endpoint.
type Config struct {
	// Listen is the TCP address to bind; every fabric process listens so
	// peers can reach the endpoints it hosts (use "127.0.0.1:0" in
	// tests).
	Listen string
	// Advertise is the address other processes dial to reach this one;
	// it defaults to the bound listen address and matters when the bind
	// address is not routable as-is.
	Advertise string
	// Process is the base name of this endpoint (default: the advertise
	// address). An incarnation nonce is always appended: the receive-side
	// duplicate filter is keyed by the full name, and a restarted
	// process is a new sender stream that must not be filtered by the
	// sequence watermark its predecessor accumulated at its peers.
	Process string

	// Routes maps exact endpoint addresses to "host:port" of the process
	// hosting them.
	Routes map[fabric.Addr]string
	// DCRoutes maps a whole datacenter to one process, for deployments
	// that run each datacenter as a single process.
	DCRoutes map[types.DCID]string

	// Compress selects per-frame compression for the connections this
	// endpoint dials (compress.Off, Snappy, or Zstd; cmd/eunomia-server
	// -compress). The dialer announces the scheme in one magic byte, so
	// compressed and plain peers interoperate per connection; inbound
	// connections follow the remote dialer's announcement regardless of
	// this setting.
	Compress compress.Scheme
	// CompressMin is the minimum encoded frame size that gets
	// compressed; smaller records (heartbeats, acks, tiny batches) ship
	// raw and skip the codec overhead. Default 512 bytes; negative
	// compresses everything.
	CompressMin int

	// WANShaper, if set, delays inbound cross-datacenter data frames by
	// the shaper's per-link model (latency, jitter, loss-as-retransmit,
	// bandwidth) before dispatch, sized by actual bytes on the wire.
	// Shaping is receiver-side and FIFO-preserving, through a delay line
	// rather than a per-frame stall (see serveShaped): the emulated-WAN
	// benchmarks and the -wan flag use it to make loopback TCP honest
	// about distance. Ack and hello frames are not shaped (the data
	// direction carries the modeled cost).
	WANShaper *wan.Shaper

	// Faults, if set, is the fault-injection seam (internal/faults):
	// inbound cross-datacenter data frames consult it for a fate
	// (drop/duplicate/corrupt/delay, plus partition cuts) after WAN
	// shaping and before dedup/dispatch, outbound dials consult the
	// blackhole, and the endpoint's break-every-connection hook is
	// registered for the conn-reset event. Nil (the default) costs the
	// hot path nothing but a nil check.
	Faults *faults.Injector

	// HoldDelivery makes inbound connections wait for Ready before any
	// frame is consumed (or acknowledged). A booting process accepts
	// connections the moment Listen returns, but registers its endpoints
	// only once its roles are built; without the hold, frames arriving
	// in that window are dropped as unroutable yet still acknowledged —
	// and for send-once edges (stable-metadata shipping, payload
	// batches) the sender's window prunes them for good. With the hold,
	// unacknowledged frames simply wait in peers' retransmit windows and
	// deliver after Ready. Dialing and sending are never held.
	HoldDelivery bool

	// Window bounds unacknowledged frames per peer; Send blocks (pure
	// backpressure) when it is full. Default 4096.
	Window int
	// MaxFrame bounds a single frame on the wire. Default 64 MiB.
	MaxFrame int
	// DialTimeout bounds one connection attempt. Default 2s.
	DialTimeout time.Duration
	// RedialBackoff is the initial pause between failed dials; it
	// doubles up to one second. Default 50ms.
	RedialBackoff time.Duration
}

func (c *Config) fill() {
	if c.Routes == nil {
		c.Routes = make(map[fabric.Addr]string)
	}
	if c.DCRoutes == nil {
		c.DCRoutes = make(map[types.DCID]string)
	}
	if c.Window <= 0 {
		c.Window = 4096
	}
	if c.CompressMin == 0 {
		c.CompressMin = 512
	} else if c.CompressMin < 0 {
		c.CompressMin = 0
	}
	if c.MaxFrame <= 0 {
		c.MaxFrame = 64 << 20
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.RedialBackoff <= 0 {
		c.RedialBackoff = 50 * time.Millisecond
	}
}

// incarnation disambiguates default process names within one OS process.
var incarnation uint64

// Frame kinds.
const (
	frameHello = int8(iota + 1)
	frameData
	frameAck
)

// frame is the transport's unit: one wire-encoded envelope behind a
// 4-byte length prefix.
type frame struct {
	Kind int8
	// Seq numbers data frames per sender process, contiguously.
	Seq uint64
	// Ack is the receiver's cumulative delivered sequence.
	Ack uint64
	// Process and Advertise identify the dialer (hello frames).
	Process   string
	Advertise string
	// Data frame body.
	From, To fabric.Addr
	SentAt   time.Time
	Payload  any

	// wireBytes is the socket footprint of the record that carried this
	// frame (length prefix included), set by decoders for the WAN
	// shaper's bandwidth model. Not serialized.
	wireBytes int
}

// TCP is a fabric endpoint backed by real sockets. It implements
// fabric.Fabric.
type TCP struct {
	cfg Config
	ln  net.Listener
	// loop delivers to endpoints hosted by this process without touching
	// the network, preserving per-pair FIFO via simnet's link machinery.
	loop *simnet.Network

	mu       sync.Mutex
	handlers map[fabric.Addr]fabric.Handler
	learned  map[fabric.Addr]string
	peers    map[string]*peer
	inSeq    map[string]uint64 // per remote process: last delivered seq
	// incarnations maps an advertise address to the process name last
	// seen from it, so the duplicate-filter state of dead incarnations
	// is pruned instead of accumulating across peer restarts.
	incarnations map[string]string
	conns        map[net.Conn]struct{}
	closed       bool

	// ready gates inbound frame consumption (Config.HoldDelivery); done
	// releases held connections on Close.
	ready     chan struct{}
	readyOnce sync.Once
	done      chan struct{}

	wg sync.WaitGroup

	// stats holds the codec latency histograms, all connections merged.
	stats *codecStats

	// comp aggregates compression byte counters over every connection
	// (compressed or not — uncompressed connections count raw == wire,
	// so bytes-on-wire is always measurable).
	comp compressCounters

	// Stats count fabric activity for tests and reports.
	Sent       atomic.Int64
	Delivered  atomic.Int64
	Dropped    atomic.Int64
	DupDropped atomic.Int64
}

var _ fabric.Fabric = (*TCP)(nil)

// Listen binds the endpoint and starts accepting peers.
func Listen(cfg Config) (*TCP, error) {
	cfg.fill()
	switch cfg.Compress {
	case compress.Off, compress.Snappy, compress.Zstd:
	default:
		return nil, fmt.Errorf("transport: unknown compression scheme %v", cfg.Compress)
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, err
	}
	if cfg.Advertise == "" {
		cfg.Advertise = ln.Addr().String()
	}
	if cfg.Process == "" {
		cfg.Process = cfg.Advertise
	}
	// See Config.Process: the nonce is never optional, or a restarted
	// process with a stable configured name would have every frame of
	// its fresh stream silently dropped by its peers' duplicate filters.
	cfg.Process = fmt.Sprintf("%s#%d", cfg.Process, atomic.AddUint64(&incarnation, 1)^uint64(time.Now().UnixNano()))
	t := &TCP{
		cfg:          cfg,
		ln:           ln,
		loop:         simnet.New(nil),
		handlers:     make(map[fabric.Addr]fabric.Handler),
		learned:      make(map[fabric.Addr]string),
		peers:        make(map[string]*peer),
		inSeq:        make(map[string]uint64),
		incarnations: make(map[string]string),
		conns:        make(map[net.Conn]struct{}),
		stats:        newCodecStats(),
		ready:        make(chan struct{}),
		done:         make(chan struct{}),
	}
	if !cfg.HoldDelivery {
		t.Ready() // through the Once, so a caller's Ready stays a no-op
	}
	if cfg.Faults != nil {
		cfg.Faults.OnConnReset(t.BreakConns)
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Ready releases inbound delivery held by Config.HoldDelivery; call it
// once every endpoint this process hosts is registered. Idempotent, and
// a no-op without the hold.
func (t *TCP) Ready() { t.readyOnce.Do(func() { close(t.ready) }) }

// Addr returns the bound listen address (useful with ":0" listeners).
func (t *TCP) Addr() net.Addr { return t.ln.Addr() }

// Register implements fabric.Fabric.
func (t *TCP) Register(a fabric.Addr, h fabric.Handler) {
	t.mu.Lock()
	t.handlers[a] = h
	t.mu.Unlock()
	t.loop.Register(a, h)
}

// Unregister implements fabric.Fabric.
func (t *TCP) Unregister(a fabric.Addr) {
	t.mu.Lock()
	delete(t.handlers, a)
	t.mu.Unlock()
	t.loop.Unregister(a)
}

// Send implements fabric.Fabric. Remote sends block only on a full
// unacknowledged window; they never wait for the peer to respond.
func (t *TCP) Send(from, to fabric.Addr, payload any) {
	t.Sent.Add(1)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.Dropped.Add(1)
		return
	}
	if _, local := t.handlers[to]; local {
		t.mu.Unlock()
		t.loop.Send(from, to, payload)
		t.Delivered.Add(1)
		return
	}
	dial, ok := t.routeLocked(to)
	if !ok {
		t.mu.Unlock()
		t.Dropped.Add(1)
		return
	}
	p := t.peerForLocked(dial)
	t.mu.Unlock()
	p.enqueue(&frame{Kind: frameData, From: from, To: to, SentAt: time.Now(), Payload: payload})
}

// Close implements fabric.Fabric: it tears down the listener, every peer
// connection, and the loopback, then waits for all goroutines.
func (t *TCP) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	close(t.done)
	peers := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	_ = t.ln.Close()
	for _, p := range peers {
		p.close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	t.loop.Close()
	t.wg.Wait()
}

// BreakConns closes every live connection once — inbound and outbound —
// without touching the endpoint itself: dialers redial with (jittered)
// backoff and retransmit their unacknowledged windows. This is the
// transport/conn-reset fault point; the faults.Injector's conn-reset
// event fires it.
func (t *TCP) BreakConns() {
	t.mu.Lock()
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	peers := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	for _, c := range conns {
		_ = c.Close()
	}
	for _, p := range peers {
		p.mu.Lock()
		if p.conn != nil {
			_ = p.conn.Close()
		}
		p.mu.Unlock()
	}
}

// AddRoute installs (or replaces) an exact endpoint route at runtime;
// exact routes beat datacenter wildcards.
func (t *TCP) AddRoute(a fabric.Addr, hostport string) {
	t.mu.Lock()
	t.cfg.Routes[a] = hostport
	t.mu.Unlock()
}

// AddDCRoute installs (or replaces) a datacenter-wildcard route at
// runtime.
func (t *TCP) AddDCRoute(dc types.DCID, hostport string) {
	t.mu.Lock()
	t.cfg.DCRoutes[dc] = hostport
	t.mu.Unlock()
}

func (t *TCP) routeLocked(to fabric.Addr) (string, bool) {
	if hp, ok := t.cfg.Routes[to]; ok {
		return hp, true
	}
	if hp, ok := t.cfg.DCRoutes[to.DC]; ok {
		return hp, true
	}
	if hp, ok := t.learned[to]; ok {
		return hp, true
	}
	return "", false
}

func (t *TCP) learn(a fabric.Addr, advertise string) {
	t.mu.Lock()
	if t.learned[a] != advertise {
		t.learned[a] = advertise
	}
	t.mu.Unlock()
}

func (t *TCP) peerForLocked(dial string) *peer {
	if p, ok := t.peers[dial]; ok {
		return p
	}
	p := &peer{t: t, dialAddr: dial, done: make(chan struct{})}
	p.cond = sync.NewCond(&p.mu)
	t.peers[dial] = p
	t.wg.Add(1)
	go p.run()
	return p
}

func (t *TCP) dispatch(m fabric.Message) {
	t.mu.Lock()
	h := t.handlers[m.To]
	t.mu.Unlock()
	if h == nil {
		t.Dropped.Add(1)
		return
	}
	t.Delivered.Add(1)
	h(m)
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = conn.Close()
			return
		}
		t.conns[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go t.serveInbound(conn)
	}
}

// serveInbound drains one peer's data stream: dedupe by sequence, dispatch
// in arrival order (FIFO per sender), and return cumulative acks — one per
// quarter window at the latest, and whenever the pipe momentarily drains.
func (t *TCP) serveInbound(conn net.Conn) {
	defer t.wg.Done()
	defer func() {
		t.mu.Lock()
		delete(t.conns, conn)
		t.mu.Unlock()
		_ = conn.Close()
	}()

	// Hold the whole stream until the process's endpoints exist: nothing
	// is read, so nothing gets acknowledged, and the dialer's window
	// retains every frame for delivery after Ready.
	select {
	case <-t.ready:
	case <-t.done:
		return
	}

	// The first byte announces the dialer's compression scheme;
	// everything after it — the inbound frames and our acks — is
	// compressed (or not) alike in both directions.
	var magic [1]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		return
	}
	var scheme compress.Scheme
	switch magic[0] {
	case codecMagicWire:
		scheme = compress.Off
	case codecMagicWireSnappy:
		scheme = compress.Snappy
	case codecMagicWireZstd:
		scheme = compress.Zstd
	default:
		return // not a fabric peer
	}
	fr := newWireFrameReader(conn, t.cfg.MaxFrame, t.stats, scheme, &t.comp)
	var hello frame
	if err := fr.next(&hello); err != nil || hello.Kind != frameHello || hello.Process == "" {
		return
	}
	proc := hello.Process
	// No magic byte on answers: the dialer already knows the scheme.
	fw := newWireFrameWriter(conn, t.cfg.MaxFrame, t.stats, false, scheme, t.cfg.CompressMin, &t.comp)
	defer fw.release()

	t.mu.Lock()
	if hello.Advertise != "" {
		// A fresh incarnation from the same peer address supersedes the
		// old one; drop the dead incarnation's duplicate-filter state.
		if prev, ok := t.incarnations[hello.Advertise]; ok && prev != proc {
			delete(t.inSeq, prev)
		}
		t.incarnations[hello.Advertise] = proc
	}
	last := t.inSeq[proc]
	t.mu.Unlock()

	in := &inbound{proc: proc, advertise: hello.Advertise, last: last, learned: make(map[fabric.Addr]bool)}
	ackEvery := t.cfg.Window / 4
	if ackEvery < 1 {
		ackEvery = 1
	}
	if t.cfg.WANShaper != nil {
		t.serveShaped(conn, fr, fw, in, ackEvery)
	} else {
		sinceAck := 0
		for {
			var f frame
			if err := fr.next(&f); err != nil {
				break
			}
			if f.Kind != frameData {
				continue
			}
			if !t.deliver(in, &f) {
				break
			}
			sinceAck++
			if sinceAck >= ackEvery || fr.buffered() == 0 {
				if t.ack(in, fw) != nil {
					break
				}
				sinceAck = 0
			}
		}
	}
	t.mu.Lock()
	if in.last > t.inSeq[proc] {
		t.inSeq[proc] = in.last
	}
	t.mu.Unlock()
}

// inbound is one inbound connection's delivery state.
type inbound struct {
	proc      string // the dialer's process name (duplicate-filter key)
	advertise string // the dialer's listen address, for learned routes
	last      uint64 // highest sequence delivered (or dropped by a fault)
	// learned holds the source addresses already learned on this
	// connection: learning is a fabric-wide mutex acquisition, so it
	// happens once per source rather than once per frame.
	learned    map[fabric.Addr]bool
	faultTimer *time.Timer
}

// deliver dedupes one data frame by sequence, applies any injected
// fault, and dispatches it. It returns false when the connection must be
// torn down (an injected corruption) or the endpoint is closing.
func (t *TCP) deliver(in *inbound, f *frame) bool {
	if f.Seq <= in.last {
		t.DupDropped.Add(1)
		return true
	}
	// Fault injection (new cross-DC data frames only — frames the dedup
	// watermark already covers were dispatched in a prior life and just
	// burn a duplicate). Corrupt tears the connection down before the
	// watermark advances: a framing checksum failure kills the stream,
	// the dialer's reconnect retransmits everything unacked, and the
	// retried frame redraws its fate. Drop consumes and acknowledges the
	// frame without dispatching it: loss at the fabric layer, exactly what
	// a simnet SetDrop delivers, so the protocols' own recovery paths must
	// absorb it.
	fate := faults.FateDeliver
	if inj := t.cfg.Faults; inj != nil && f.From.DC != f.To.DC {
		var fdelay time.Duration
		fate, fdelay = inj.FrameFate(f.From.DC, f.To.DC)
		if fate == faults.FateCorrupt {
			// The caller leaves the frame loop and persists the
			// delivered prefix's watermark into inSeq, or the reconnect
			// would re-dispatch it as duplicates.
			return false
		}
		if fdelay > 0 && !t.sleep(&in.faultTimer, fdelay) {
			return false
		}
	}
	in.last = f.Seq
	if fate == faults.FateDrop {
		t.Dropped.Add(1)
		return true
	}
	if in.advertise != "" && !in.learned[f.From] {
		in.learned[f.From] = true
		t.learn(f.From, in.advertise)
	}
	m := fabric.Message{From: f.From, To: f.To, Payload: f.Payload, SentAt: f.SentAt}
	t.dispatch(m)
	if fate == faults.FateDup {
		t.dispatch(m)
	}
	return true
}

// ack records the delivered watermark for the dialer's process and
// returns it as a cumulative acknowledgement.
func (t *TCP) ack(in *inbound, fw *wireFrameWriter) error {
	t.mu.Lock()
	if in.last > t.inSeq[in.proc] {
		t.inSeq[in.proc] = in.last
	}
	t.mu.Unlock()
	if err := fw.write(&frame{Kind: frameAck, Ack: in.last}); err != nil {
		return err
	}
	return fw.flush()
}

// sleep waits d on a reusable timer; false means the endpoint closed.
func (t *TCP) sleep(timer **time.Timer, d time.Duration) bool {
	if *timer == nil {
		*timer = time.NewTimer(d)
	} else {
		(*timer).Reset(d)
	}
	select {
	case <-(*timer).C:
		return true
	case <-t.done:
		return false
	}
}

// shapedFrame is a data frame in a connection's WAN delay line, with the
// instant it is due for dispatch.
type shapedFrame struct {
	f   frame
	due time.Time
}

// serveShaped is the inbound frame loop behind the emulated WAN
// (Config.WANShaper). A reader goroutine stamps each data frame on
// arrival with its due instant — arrival plus the link's planned delay
// for a cross-datacenter frame, and never before its predecessor's, so
// FIFO survives — and queues it on a delay line; this goroutine
// dispatches each frame when it falls due. The reader never sleeps, so a
// link's frame rate is bounded by its bandwidth model, not by one frame
// per link delay. Only dispatched frames are acknowledged: frames still
// in the line when the connection breaks are retransmitted by the
// dialer, and the dialer's window is the backpressure a slow pipe
// exerts.
func (t *TCP) serveShaped(conn net.Conn, fr *wireFrameReader, fw *wireFrameWriter, in *inbound, ackEvery int) {
	sh := t.cfg.WANShaper
	// Only dispatched frames are acknowledged, so the line holds at most
	// the dialer's window; sized to this endpoint's window, it fills only
	// toward a peer configured with a larger one, and then merely stalls
	// the reader, which is backpressure.
	line := make(chan shapedFrame, t.cfg.Window)
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		defer close(line)
		var prev time.Time
		for {
			var f frame
			if err := fr.next(&f); err != nil {
				return
			}
			if f.Kind != frameData {
				continue
			}
			now := time.Now()
			due := now
			if f.From.DC != f.To.DC {
				if d, ok := sh.PlanReliable(f.From.DC, f.To.DC, f.wireBytes, now); ok && d > 0 {
					due = now.Add(d)
				}
			}
			if due.Before(prev) {
				due = prev
			}
			prev = due
			select {
			case line <- shapedFrame{f: f, due: due}:
			case <-stop:
				return
			}
		}
	}()
	defer func() {
		close(stop)
		_ = conn.Close() // unblocks the reader
		reader.Wait()
	}()

	var timer *time.Timer
	sinceAck := 0
	for sf := range line {
		if wait := time.Until(sf.due); wait > 0 {
			// Idle until the next frame is due: acknowledge what has been
			// dispatched so far first.
			if sinceAck > 0 {
				if t.ack(in, fw) != nil {
					return
				}
				sinceAck = 0
			}
			if !t.sleep(&timer, wait) {
				return
			}
		}
		if !t.deliver(in, &sf.f) {
			return
		}
		sinceAck++
		if sinceAck >= ackEvery || len(line) == 0 {
			if t.ack(in, fw) != nil {
				return
			}
			sinceAck = 0
		}
	}
}

// peer owns the outbound stream to one process: a queue of unacknowledged
// frames, a single writer goroutine, and a reconnect loop that
// retransmits the unacknowledged suffix on a fresh socket.
type peer struct {
	t        *TCP
	dialAddr string

	mu      sync.Mutex
	cond    *sync.Cond
	q       []*frame // unacknowledged frames, ascending sequence order
	sendPos int      // index into q of the first frame not yet written to conn
	nextSeq uint64
	conn    net.Conn // live socket, nil while disconnected
	closed  bool
	done    chan struct{} // closed exactly once by close()

	// Window counters for metrics export: the highest sequence ever
	// written to a socket (frames at or below it that are written again
	// are retransmissions), the highest cumulative ack received, and the
	// running retransmission count.
	maxSent     uint64
	ackedCum    uint64
	retransmits int64
}

// PeerStat is one peer's window state for metrics export.
type PeerStat struct {
	// Peer is the dial address of the remote process.
	Peer string
	// InFlight is the number of sent-but-unacknowledged frames currently
	// buffered (the retransmit window's occupancy).
	InFlight int
	// Sent is the highest sequence assigned to an outbound frame.
	Sent uint64
	// AckedCum is the highest cumulative acknowledgement received.
	AckedCum uint64
	// Retransmits counts frames written to a socket more than once
	// (reconnect retransmission).
	Retransmits int64
	// Connected reports whether a live socket is attached.
	Connected bool
}

// PeerStats snapshots every peer's window counters, sorted by nothing in
// particular (callers label by Peer).
func (t *TCP) PeerStats() []PeerStat {
	t.mu.Lock()
	peers := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	stats := make([]PeerStat, 0, len(peers))
	for _, p := range peers {
		p.mu.Lock()
		stats = append(stats, PeerStat{
			Peer:        p.dialAddr,
			InFlight:    len(p.q),
			Sent:        p.nextSeq,
			AckedCum:    p.ackedCum,
			Retransmits: p.retransmits,
			Connected:   p.conn != nil,
		})
		p.mu.Unlock()
	}
	return stats
}

// Compress reports the compression scheme this endpoint dials with.
func (t *TCP) Compress() compress.Scheme { return t.cfg.Compress }

// CompressStats is a snapshot of an endpoint's compression byte
// accounting, all connections merged. Raw counts record bytes as they
// would ship uncompressed (length prefixes included), Wire the bytes that
// actually crossed sockets; Raw/Wire is the realized compression ratio,
// and Wire alone is bytes-on-wire (uncompressed connections advance both
// equally).
type CompressStats struct {
	TxRaw, TxWire, RxRaw, RxWire int64
}

// CompressStats returns the endpoint's compression byte counters.
func (t *TCP) CompressStats() CompressStats {
	return CompressStats{
		TxRaw:  t.comp.txRaw.Load(),
		TxWire: t.comp.txWire.Load(),
		RxRaw:  t.comp.rxRaw.Load(),
		RxWire: t.comp.rxWire.Load(),
	}
}

// CodecStats returns the endpoint's serialization latency histograms:
// frame encode, frame decode, and socket flush (all connections merged,
// nanosecond samples). cmd/eunomia-server exports them on -metrics-addr.
func (t *TCP) CodecStats() (enc, dec, flush *metrics.Histogram) {
	return t.stats.enc, t.stats.dec, t.stats.flush
}

func (p *peer) enqueue(f *frame) {
	p.mu.Lock()
	for !p.closed && len(p.q) >= p.t.cfg.Window {
		p.cond.Wait()
	}
	if p.closed {
		p.mu.Unlock()
		p.t.Dropped.Add(1)
		return
	}
	p.nextSeq++
	f.Seq = p.nextSeq
	p.q = append(p.q, f)
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *peer) close() {
	p.mu.Lock()
	if !p.closed {
		p.closed = true
		close(p.done)
	}
	if p.conn != nil {
		_ = p.conn.Close()
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *peer) run() {
	defer p.t.wg.Done()
	backoff := p.t.cfg.RedialBackoff
	for {
		// Wait for something to send (no point holding an idle dial).
		p.mu.Lock()
		for !p.closed && p.sendPos >= len(p.q) {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		p.mu.Unlock()

		var conn net.Conn
		var err error
		if inj := p.t.cfg.Faults; inj != nil && inj.DialBlackholed() {
			err = errBlackholed // the transport/dial-blackhole fault point
		} else {
			conn, err = net.DialTimeout("tcp", p.dialAddr, p.t.cfg.DialTimeout)
		}
		if err != nil {
			// Jittered backoff: sleep a uniform draw from [b/2, 3b/2)
			// instead of exactly b, so every peer of a restarted
			// listener doesn't redial in lockstep and stampede it the
			// instant it comes back.
			if p.sleepClosed(jitter(backoff)) {
				return
			}
			if backoff *= 2; backoff > time.Second {
				backoff = time.Second
			}
			continue
		}
		backoff = p.t.cfg.RedialBackoff
		p.serveConn(conn)
	}
}

var errBlackholed = errors.New("transport: dial blackholed (injected)")

// jitter spreads d uniformly over [d/2, 3d/2).
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// sleepClosed pauses for d and reports whether the peer was closed.
func (p *peer) sleepClosed(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return false
	case <-p.done:
		return true
	}
}

func (p *peer) serveConn(conn net.Conn) {
	ackDone := make(chan struct{})
	defer func() {
		_ = conn.Close()
		<-ackDone
	}()

	t := p.t
	fw := newWireFrameWriter(conn, t.cfg.MaxFrame, t.stats, true, t.cfg.Compress, t.cfg.CompressMin, &t.comp)
	defer fw.release()
	if fw.write(&frame{Kind: frameHello, Process: p.t.cfg.Process, Advertise: p.t.cfg.Advertise}) != nil || fw.flush() != nil {
		close(ackDone)
		return
	}

	// Fresh socket: retransmit the entire unacknowledged window.
	p.mu.Lock()
	p.sendPos = 0
	p.conn = conn
	p.mu.Unlock()
	go p.readAcks(conn, ackDone)

	for {
		p.mu.Lock()
		for !p.closed && p.conn == conn && p.sendPos >= len(p.q) {
			p.cond.Wait()
		}
		if p.closed || p.conn != conn {
			p.mu.Unlock()
			return
		}
		batch := make([]*frame, len(p.q)-p.sendPos)
		copy(batch, p.q[p.sendPos:])
		p.sendPos = len(p.q)
		for _, f := range batch {
			if f.Seq <= p.maxSent {
				p.retransmits++
			} else {
				p.maxSent = f.Seq
			}
		}
		p.mu.Unlock()

		for _, f := range batch {
			if err := fw.write(f); err != nil {
				var ee *encodeError
				if errors.As(err, &ee) {
					// Unserializable frame: drop it from the window so
					// the reconnect does not redial into the same
					// encode failure forever, then reset the codec.
					p.dropFrame(f)
					p.t.Dropped.Add(1)
				}
				return
			}
		}
		if fw.flush() != nil {
			return
		}
	}
}

// dropFrame removes one frame from the unacknowledged window (sequence
// gaps are fine: receivers dedupe by high-water mark, acks are
// cumulative).
func (p *peer) dropFrame(f *frame) {
	p.mu.Lock()
	for i, q := range p.q {
		if q == f {
			p.q = append(p.q[:i], p.q[i+1:]...)
			if i < p.sendPos {
				p.sendPos--
			}
			p.cond.Broadcast() // window space freed
			break
		}
	}
	p.mu.Unlock()
}

// readAcks prunes the unacknowledged queue as cumulative acks arrive; on
// any read error it detaches the socket so the writer reconnects.
func (p *peer) readAcks(conn net.Conn, done chan struct{}) {
	defer close(done)
	fr := newWireFrameReader(conn, p.t.cfg.MaxFrame, p.t.stats, p.t.cfg.Compress, &p.t.comp)
	for {
		var f frame
		if err := fr.next(&f); err != nil {
			break
		}
		if f.Kind != frameAck {
			continue
		}
		p.mu.Lock()
		if f.Ack > p.ackedCum {
			p.ackedCum = f.Ack
		}
		drop := 0
		for drop < len(p.q) && p.q[drop].Seq <= f.Ack {
			drop++
		}
		if drop > 0 {
			p.q = append([]*frame(nil), p.q[drop:]...)
			if p.sendPos -= drop; p.sendPos < 0 {
				p.sendPos = 0
			}
			p.cond.Broadcast() // window space freed
		}
		p.mu.Unlock()
	}
	_ = conn.Close()
	p.mu.Lock()
	if p.conn == conn {
		p.conn = nil
		// Frames written to the dead socket are unacknowledged again;
		// rewinding makes the run loop redial and retransmit them.
		p.sendPos = 0
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// encodeError marks a frame that can never be serialized (a payload type
// without a wire.Marshaler, or an oversized frame) — permanent, unlike
// socket errors.
type encodeError struct{ err error }

func (e *encodeError) Error() string { return "transport: frame encode: " + e.err.Error() }
func (e *encodeError) Unwrap() error { return e.err }
