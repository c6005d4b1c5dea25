package geostore

// Snapshot shipping: a bootstrapping partition-role process (or a whole
// rebuilding datacenter) pulls a consistent snapshot of each of its
// partitions from a live peer datacenter instead of replaying history,
// then rejoins the release stream, whose per-origin watermarks the
// snapshot installed — so the PR 3 rejoin handshake resumes with bounded
// retransmits rather than a dataset-linear resync.
//
// The exchange is pull-based and resumable at chunk granularity:
//
//	joiner                                donor (sibling partition)
//	  SnapshotRequest{ID, Chunk:0}    ->    first sight of this pull ID:
//	                                        pin a consistent capture at
//	                                        the current watermark vector,
//	                                        split into compressed,
//	                                        checksummed chunks
//	  <- SnapshotChunk{ID, 0, Chunks, ...}
//	  SnapshotRequest{ID, Chunk:1}    ->    serve from the pin
//	  <- SnapshotChunk{ID, 1, ...}
//	  ... lost replies retry the same chunk; delivered chunks are never
//	  refetched ...
//
// A donor that crashes loses its pins: the joiner's re-request times out
// (or draws an Err reply from a restarted donor) and it falls back to
// the next configured donor, re-pinning there. Chunks are independently
// decodable (whole records only), so the joiner streams them into the
// store as they arrive and never materializes the full snapshot.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"log"
	"sync"
	"time"

	"eunomia/internal/compress"
	"eunomia/internal/fabric"
	"eunomia/internal/partition"
	"eunomia/internal/types"
	"eunomia/internal/wire"
)

// SnapshotRequestMsg asks a donor datacenter's sibling partition for one
// chunk of a pinned snapshot. The joiner chooses ID (unique per pull
// attempt): the first request carrying a new ID pins a fresh capture,
// and every later request with that ID — retransmits included — resumes
// the same pin, so a lost reply never re-captures the partition.
type SnapshotRequestMsg struct {
	From      types.DCID // requesting datacenter, for reply routing
	Partition types.PartitionID
	ID        uint64
	Chunk     uint32
}

// SnapshotChunkMsg is one chunk of a pinned snapshot: a compressed run
// of whole wal-encoded records, checksummed end to end (CRC over the
// uncompressed bytes, so corruption anywhere between the donor's capture
// and the joiner's decompress is caught). Err reports a donor-side
// failure — an unknown pin after a donor restart, or a capture error —
// and tells the joiner to fail over.
type SnapshotChunkMsg struct {
	Partition types.PartitionID
	ID        uint64
	Chunk     uint32
	Chunks    uint32
	Scheme    uint8  // compress.Scheme the Data is packed with
	CRC       uint32 // CRC32C of the uncompressed chunk
	Data      []byte
	Err       string
}

// snapshotScheme is what a donor compresses snapshot chunks with. Each
// chunk names its scheme, so the joiner decodes whatever it is sent.
const snapshotScheme = compress.Snappy

// snapChunkSize is the uncompressed chunk payload target. Chunks carry
// whole records only, so a record larger than the target travels alone
// in an oversized chunk. A variable so tests can shrink it to force
// multi-chunk transfers at test scale.
var snapChunkSize = 256 << 10

// snapReleaseChunk is the sentinel Chunk value in a SnapshotRequestMsg
// that tells the donor the pull completed and the pin's chunk memory can
// be freed. Best-effort: a lost release falls through to the idle TTL.
const snapReleaseChunk = ^uint32(0)

// snapPinIdleTTL bounds how long a pin whose joiner went silent (died
// mid-pull, release message lost) keeps its chunks resident: pins idle
// past the TTL are swept when the donor next handles a snapshot request.
// A variable so tests can shrink it.
var snapPinIdleTTL = time.Minute

var snapCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// snapPin is a donor-side pinned snapshot: the consistent capture of one
// partition, chunked and compressed once, served from memory until the
// joiner's release (or the idle TTL, or a re-pin) frees it. The pin is
// published in the pin map *before* its capture runs, so a retransmitted
// chunk-0 request with the same ID waits on ready instead of racing a
// second capture of the same ID — all chunks of one pull ID are served
// from exactly one consistent capture. served counts serves per chunk —
// the resume tests read it to prove delivered chunks are never
// refetched.
type snapPin struct {
	id    uint64
	ready chan struct{} // closed once the capture below is populated
	err   error         // capture failure, set before ready closes

	// The fields below are written only before ready closes (capture) or
	// under bootState.mu after it (release); readers hold bootState.mu
	// after waiting on ready.
	chunks    [][]byte
	crcs      []uint32
	served    []int
	released  bool
	lastServe time.Time
}

// captured reports whether the pin's capture has finished (successfully
// or not) without blocking.
func (p *snapPin) captured() bool {
	select {
	case <-p.ready:
		return true
	default:
		return false
	}
}

type snapPinKey struct {
	from types.DCID
	pid  types.PartitionID
}

// bootState is the node's snapshot-shipping state: donor-side pins and
// the joiner-side reply channel, plus the ship counters behind
// eunomia_snapshot_ship_{bytes,chunks,seconds}.
type bootState struct {
	mu   sync.Mutex
	pins map[snapPinKey]*snapPin

	waitMu sync.Mutex
	wait   map[types.PartitionID]chan SnapshotChunkMsg

	bytes  int64 // compressed chunk bytes received (joiner side)
	chunks int64
	nanos  int64
}

// BootstrapStats reports the node's snapshot-ship counters: compressed
// bytes and chunks pulled, and the wall-clock seconds bootstraps took.
func (n *Node) BootstrapStats() (bytes, chunks int64, seconds float64) {
	n.boot.mu.Lock()
	defer n.boot.mu.Unlock()
	return n.boot.bytes, n.boot.chunks, float64(n.boot.nanos) / 1e9
}

// serveSnapshotRequest handles one chunk request on the donor side. It
// runs off the fabric delivery goroutine: pinning captures the whole
// partition under its durability lock and must not stall payload
// ingestion on the endpoint.
func (n *Node) serveSnapshotRequest(local fabric.Addr, part *partition.Partition, req SnapshotRequestMsg) {
	if req.Chunk == snapReleaseChunk {
		n.releaseSnapshotPin(req)
		return
	}
	reply := fabric.PartitionAddr(req.From, req.Partition)
	pin, err := n.snapshotPin(part, req)
	if err != nil {
		n.fab.Send(local, reply, SnapshotChunkMsg{Partition: req.Partition, ID: req.ID, Err: err.Error()})
		return
	}
	// Read the chunk under the lock: a concurrent release (stale
	// retransmit after the joiner finished) frees pin.chunks in place.
	n.boot.mu.Lock()
	if pin.released || int(req.Chunk) >= len(pin.chunks) {
		nchunks := len(pin.chunks)
		n.boot.mu.Unlock()
		n.fab.Send(local, reply, SnapshotChunkMsg{Partition: req.Partition, ID: pin.id,
			Err: fmt.Sprintf("chunk %d out of range (%d chunks)", req.Chunk, nchunks)})
		return
	}
	pin.served[req.Chunk]++
	pin.lastServe = time.Now()
	msg := SnapshotChunkMsg{
		Partition: req.Partition,
		ID:        pin.id,
		Chunk:     req.Chunk,
		Chunks:    uint32(len(pin.chunks)),
		Scheme:    uint8(snapshotScheme),
		CRC:       pin.crcs[req.Chunk],
		Data:      pin.chunks[req.Chunk],
	}
	n.boot.mu.Unlock()
	n.fab.Send(local, reply, msg)
}

// releaseSnapshotPin frees a completed pull's pin memory. The map entry
// (id, serve counters) stays until a re-pin or the idle sweep replaces
// it, so late retransmits draw a deterministic error instead of pinning
// a fresh capture.
func (n *Node) releaseSnapshotPin(req SnapshotRequestMsg) {
	key := snapPinKey{from: req.From, pid: req.Partition}
	n.boot.mu.Lock()
	defer n.boot.mu.Unlock()
	if cur := n.boot.pins[key]; cur != nil && cur.id == req.ID && cur.captured() {
		cur.released = true
		cur.chunks, cur.crcs = nil, nil
	}
}

// snapshotPin returns the pin a request addresses, capturing a fresh one
// the first time its ID is seen. The pin is published (capture still in
// progress) before the partition is captured, so retransmits of chunk 0
// that arrive while a slow capture runs wait for it rather than each
// queuing another whole-partition capture behind the durability lock —
// and every chunk of one pull ID is served from exactly one capture. A
// later request whose chunk 0 already shipped under a different ID
// starts over cleanly: the old pin (stale capture, or a predecessor
// process's) is simply replaced.
func (n *Node) snapshotPin(part *partition.Partition, req SnapshotRequestMsg) (*snapPin, error) {
	key := snapPinKey{from: req.From, pid: req.Partition}
	n.boot.mu.Lock()
	if n.boot.pins == nil {
		n.boot.pins = make(map[snapPinKey]*snapPin)
	}
	// Sweep other requesters' pins whose joiner went silent without a
	// release, so abandoned pulls don't hold chunk memory forever.
	for k, p := range n.boot.pins {
		if k != key && p.captured() && time.Since(p.lastServe) > snapPinIdleTTL {
			delete(n.boot.pins, k)
		}
	}
	if cur := n.boot.pins[key]; cur != nil && cur.id == req.ID {
		n.boot.mu.Unlock()
		<-cur.ready // an in-flight capture publishes before it runs; wait it out
		return cur, cur.err
	}
	if req.Chunk != 0 {
		// Resuming a pin this donor no longer holds (restart, or a newer
		// pull replaced it): the joiner must start a new pull, not splice
		// chunks from two different captures.
		n.boot.mu.Unlock()
		return nil, fmt.Errorf("unknown snapshot pin %d for partition %d", req.ID, req.Partition)
	}
	pin := &snapPin{id: req.ID, ready: make(chan struct{}), lastServe: time.Now()}
	n.boot.pins[key] = pin // a re-pin replaces the previous capture
	n.boot.mu.Unlock()

	var cur []byte
	flush := func() {
		if len(cur) == 0 {
			return
		}
		pin.crcs = append(pin.crcs, crc32.Checksum(cur, snapCastagnoli))
		pin.chunks = append(pin.chunks, compress.Compress(snapshotScheme, nil, cur))
		cur = nil
	}
	err := part.CaptureSnapshot(func(rec []byte) error {
		cur = binary.AppendUvarint(cur, uint64(len(rec)))
		cur = append(cur, rec...)
		if len(cur) >= snapChunkSize {
			flush()
		}
		return nil
	})
	if err != nil {
		n.boot.mu.Lock()
		if n.boot.pins[key] == pin {
			delete(n.boot.pins, key)
		}
		n.boot.mu.Unlock()
		pin.err = fmt.Errorf("capturing snapshot: %w", err)
		close(pin.ready) // waiters see err, later same-ID requests re-capture
		return nil, pin.err
	}
	flush()
	if len(pin.chunks) == 0 {
		// An empty partition still ships its marks record, so this is
		// unreachable; guard anyway so Chunks is never zero on the wire.
		pin.crcs = append(pin.crcs, crc32.Checksum(nil, snapCastagnoli))
		pin.chunks = append(pin.chunks, compress.Compress(snapshotScheme, nil, nil))
	}
	pin.served = make([]int, len(pin.chunks))
	close(pin.ready)
	return pin, nil
}

// deliverBootstrapChunk routes a donor's reply to the pull loop waiting
// on this partition. Replies arriving with no puller (stale retransmits
// after a completed pull) are dropped.
func (n *Node) deliverBootstrapChunk(pid types.PartitionID, msg SnapshotChunkMsg) {
	n.boot.waitMu.Lock()
	ch := n.boot.wait[pid]
	n.boot.waitMu.Unlock()
	if ch == nil {
		return
	}
	select {
	case ch <- msg:
	default: // puller is behind; it re-requests, drop rather than block delivery
	}
}

// bootstrapPartitions pulls a snapshot of every hosted partition from
// the configured donor datacenters, in partition order, failing over
// donors per partition. Called from OpenNode after the partitions (and
// their fabric endpoints) are live and recovered, before the node
// reports itself open.
func (n *Node) bootstrapPartitions(nc NodeConfig) error {
	// A fabric that holds inbound delivery until the process declares
	// itself ready (transport.Config.HoldDelivery) must open up now: the
	// donor's chunk replies arrive on connections the donor dials back
	// into this process, and the caller won't declare readiness until
	// OpenNode — which this pull is blocking — returns. Opening early is
	// safe here: every endpoint the pull needs (the partitions, built
	// just above) is registered, and the streams that target endpoints
	// still missing (receiver, frontend) all retransmit at the protocol
	// level until acknowledged there.
	if r, ok := n.fab.(interface{ Ready() }); ok {
		r.Ready()
	}
	start := time.Now()
	for pid := range n.parts {
		if err := n.bootstrapPartition(types.PartitionID(pid), nc); err != nil {
			return err
		}
	}
	n.boot.mu.Lock()
	n.boot.nanos += time.Since(start).Nanoseconds()
	n.boot.mu.Unlock()
	log.Printf("geostore dc%d: bootstrap complete: %d partitions from dc%v in %v",
		n.id, len(n.parts), nc.BootstrapFrom, time.Since(start).Round(time.Millisecond))
	return nil
}

func (n *Node) bootstrapPartition(pid types.PartitionID, nc NodeConfig) error {
	var lastErr error
	for _, donor := range nc.BootstrapFrom {
		if donor == n.id || int(donor) < 0 || int(donor) >= n.cfg.DCs {
			return fmt.Errorf("geostore: invalid bootstrap donor dc%d", donor)
		}
		err := n.pullSnapshot(pid, donor, nc)
		if err == nil {
			return nil
		}
		lastErr = err
		log.Printf("geostore dc%d: bootstrap of partition %d from dc%d failed (%v); trying next donor", n.id, pid, donor, err)
	}
	return fmt.Errorf("geostore: bootstrap of partition %d failed against every donor: %w", pid, lastErr)
}

// pullSnapshot pulls one partition's snapshot from one donor, streaming
// chunks into the store and committing watermarks + a forced WAL
// snapshot at the end. Lost requests or replies retry the same chunk
// (the transfer resumes at chunk granularity within one pin); chunks
// that fail checksum or decompression are rejected loudly and re-pulled;
// a donor error reply or retry exhaustion fails the donor.
func (n *Node) pullSnapshot(pid types.PartitionID, donor types.DCID, nc NodeConfig) error {
	local := fabric.PartitionAddr(n.id, pid)
	donorAddr := fabric.PartitionAddr(donor, pid)

	ch := make(chan SnapshotChunkMsg, 4)
	n.boot.waitMu.Lock()
	if n.boot.wait == nil {
		n.boot.wait = make(map[types.PartitionID]chan SnapshotChunkMsg)
	}
	n.boot.wait[pid] = ch
	n.boot.waitMu.Unlock()
	defer func() {
		n.boot.waitMu.Lock()
		delete(n.boot.wait, pid)
		n.boot.waitMu.Unlock()
	}()

	timeout := nc.BootstrapChunkTimeout
	if timeout <= 0 {
		timeout = time.Second
	}
	attempts := nc.BootstrapChunkAttempts
	if attempts <= 0 {
		attempts = 20
	}

	in := n.parts[pid].BeginInstall()
	// The pull id: unique per attempt (wall-clock nanoseconds cannot
	// collide with a predecessor process's pull), so donor-side pinning
	// is idempotent across retransmits and a fresh attempt — this one, or
	// a successor process's — captures anew instead of resuming a stale
	// pin.
	id := uint64(time.Now().UnixNano())
	var (
		total   uint32
		chunk   uint32
		bytes   int64
		chunks  int64
		corrupt int
	)
	for {
		req := SnapshotRequestMsg{From: n.id, Partition: pid, ID: id, Chunk: chunk}
		msg, err := n.snapshotRoundTrip(local, donorAddr, req, ch, timeout, attempts)
		if err != nil {
			return err
		}
		if msg.Err != "" {
			return fmt.Errorf("donor dc%d: %s", donor, msg.Err)
		}
		raw, decErr := compress.Decompress(compress.Scheme(msg.Scheme), nil, msg.Data)
		if decErr != nil {
			log.Printf("geostore dc%d: REJECTING snapshot chunk %d/%d of partition %d from dc%d: undecodable (%v); re-pulling the chunk",
				n.id, msg.Chunk, msg.Chunks, pid, donor, decErr)
			if corrupt++; corrupt >= 3 {
				return fmt.Errorf("donor dc%d served %d corrupt chunks, giving up on it", donor, corrupt)
			}
			continue // retry the same chunk
		}
		if sum := crc32.Checksum(raw, snapCastagnoli); sum != msg.CRC {
			log.Printf("geostore dc%d: REJECTING snapshot chunk %d/%d of partition %d from dc%d: checksum mismatch (got %08x, want %08x); re-pulling the chunk",
				n.id, msg.Chunk, msg.Chunks, pid, donor, sum, msg.CRC)
			if corrupt++; corrupt >= 3 {
				return fmt.Errorf("donor dc%d served %d corrupt chunks, giving up on it", donor, corrupt)
			}
			continue
		}
		if err := installChunk(in, raw); err != nil {
			return fmt.Errorf("installing snapshot chunk %d from dc%d: %w", msg.Chunk, donor, err)
		}
		bytes += int64(len(msg.Data))
		chunks++
		if chunk == 0 {
			total = msg.Chunks
		}
		chunk++
		if chunk >= total {
			break
		}
	}
	if err := in.Commit(); err != nil {
		return fmt.Errorf("committing shipped snapshot: %w", err)
	}
	// Best-effort release: the donor frees the pin's chunk memory now
	// rather than holding a compressed copy of the partition until the
	// idle TTL. No reply is expected; a lost release costs only the TTL.
	n.fab.Send(local, donorAddr, SnapshotRequestMsg{From: n.id, Partition: pid, ID: id, Chunk: snapReleaseChunk})
	n.boot.mu.Lock()
	n.boot.bytes += bytes
	n.boot.chunks += chunks
	n.boot.mu.Unlock()
	return nil
}

// snapshotRoundTrip sends one chunk request and waits for its reply,
// retrying on timeout. Stale replies (an earlier chunk's retransmit, or
// a previous pin's id) are discarded without consuming an attempt's
// clock.
func (n *Node) snapshotRoundTrip(local, donorAddr fabric.Addr, req SnapshotRequestMsg, ch chan SnapshotChunkMsg, timeout time.Duration, attempts int) (SnapshotChunkMsg, error) {
	for a := 0; a < attempts; a++ {
		n.fab.Send(local, donorAddr, req)
		deadline := time.NewTimer(timeout)
	wait:
		for {
			select {
			case msg := <-ch:
				if msg.ID != req.ID {
					// A previous pin's id — a late chunk, or an error from a
					// donor answering an abandoned pull. Either way it says
					// nothing about this pull; never let it fail this donor.
					continue
				}
				if msg.Err != "" {
					deadline.Stop()
					return msg, nil
				}
				if msg.Chunk != req.Chunk {
					continue // stale retransmit of an earlier request
				}
				deadline.Stop()
				return msg, nil
			case <-deadline.C:
				break wait
			}
		}
	}
	return SnapshotChunkMsg{}, fmt.Errorf("no reply for snapshot chunk %d after %d attempts (donor down or unreachable)", req.Chunk, attempts)
}

// installChunk feeds one decompressed chunk's records to the installer.
// Chunks carry whole records, so each decodes independently.
func installChunk(in *partition.SnapshotInstall, raw []byte) error {
	for len(raw) > 0 {
		rlen, k := binary.Uvarint(raw)
		if k <= 0 || rlen > uint64(len(raw)-k) {
			return fmt.Errorf("corrupt record framing in snapshot chunk")
		}
		if err := in.Record(raw[k : k+int(rlen)]); err != nil {
			return err
		}
		raw = raw[k+int(rlen):]
	}
	return nil
}

// WireTag implements wire.Marshaler.
func (m SnapshotRequestMsg) WireTag() wire.Tag { return wire.TagSnapshotRequest }

// AppendWire implements wire.Marshaler.
func (m SnapshotRequestMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.From))
	b = wire.AppendUvarint(b, uint64(m.Partition))
	b = wire.AppendUvarint(b, m.ID)
	return wire.AppendUvarint(b, uint64(m.Chunk))
}

// WireTag implements wire.Marshaler.
func (m SnapshotChunkMsg) WireTag() wire.Tag { return wire.TagSnapshotChunk }

// AppendWire implements wire.Marshaler.
func (m SnapshotChunkMsg) AppendWire(b []byte) []byte {
	b = wire.AppendUvarint(b, uint64(m.Partition))
	b = wire.AppendUvarint(b, m.ID)
	b = wire.AppendUvarint(b, uint64(m.Chunk))
	b = wire.AppendUvarint(b, uint64(m.Chunks))
	b = append(b, m.Scheme)
	b = wire.AppendUint64(b, uint64(m.CRC))
	b = wire.AppendBytes(b, m.Data)
	return wire.AppendString(b, m.Err)
}

func init() {
	wire.Register(wire.TagSnapshotRequest, func(d *wire.Dec) any {
		return SnapshotRequestMsg{
			From:      types.DCID(d.Uvarint()),
			Partition: types.PartitionID(d.Uvarint()),
			ID:        d.Uvarint(),
			Chunk:     uint32(d.Uvarint()),
		}
	})
	wire.Register(wire.TagSnapshotChunk, func(d *wire.Dec) any {
		return SnapshotChunkMsg{
			Partition: types.PartitionID(d.Uvarint()),
			ID:        d.Uvarint(),
			Chunk:     uint32(d.Uvarint()),
			Chunks:    uint32(d.Uvarint()),
			Scheme:    d.Byte(),
			CRC:       uint32(d.Uint64()),
			Data:      d.Bytes(),
			Err:       d.String(),
		}
	})
}

var (
	_ wire.Marshaler = SnapshotRequestMsg{}
	_ wire.Marshaler = SnapshotChunkMsg{}
)
