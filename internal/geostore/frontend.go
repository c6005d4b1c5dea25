package geostore

// The client front door: a fabric-attached role that serves the paper's
// client protocol (Algorithm 1 / §4) to processes that are not the store.
// A Frontend holds no causal state of its own — every fact a client has
// observed rides in its session token (session.Token) — so any frontend of
// the deployment can serve any client, and a client that migrates between
// datacenters mid-session keeps its guarantees: before reading, the
// destination frontend waits until its datacenter's receiver SiteTime
// dominates the token's remote entries (§4, client migration), which is
// exactly the condition under which everything the client has ever
// observed is applied locally.
//
// Three round trips make up the protocol, all over the fabric (so the same
// code serves an in-process simnet deployment and a TCP one):
//
//	frontend ──► partition: ClientReadMsg / ClientWriteMsg  (ring-routed)
//	frontend ──► receiver:  WaitMsg (visibility wait, reads only)
//
// Writes never wait: the update's dependency vector travels with it, and
// remote receivers enforce it before making the write visible (Algorithm
// 5). Reads wait only when the token's remote entries exceed the
// frontend's cached view of SiteTime, so a client that stays at one
// datacenter waits at most once per remote fact it learns.

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"eunomia/internal/fabric"
	"eunomia/internal/kvstore"
	"eunomia/internal/metrics"
	"eunomia/internal/session"
	"eunomia/internal/types"
	"eunomia/internal/vclock"
)

// ClientReadMsg asks the partition responsible for Key for its current
// version (Algorithm 1 READ, server side).
type ClientReadMsg struct {
	ID  uint64
	Key types.Key
}

// ClientReadAckMsg answers a read: the stored value and its vector
// timestamp, or Found=false for a key the store has never seen.
type ClientReadAckMsg struct {
	ID    uint64
	Found bool
	Value types.Value
	VTS   vclock.V
}

// ClientWriteMsg asks the responsible partition to accept an update with
// the client's dependency vector (Algorithm 1 UPDATE, server side).
type ClientWriteMsg struct {
	ID    uint64
	Key   types.Key
	Value types.Value
	Dep   vclock.V
}

// ClientWriteAckMsg returns the vector timestamp the partition assigned.
type ClientWriteAckMsg struct {
	ID  uint64
	VTS vclock.V
}

// WaitMsg asks the datacenter's receiver to block until its SiteTime
// dominates Dep's remote entries — the migration visibility wait. The
// receiver parks on its advances and gives up after WaitNanos
// (defaultWaitBudget when not positive).
type WaitMsg struct {
	ID        uint64
	Dep       vclock.V
	WaitNanos int64
}

// defaultWaitBudget bounds a WaitMsg that names no budget of its own.
const defaultWaitBudget = 10 * time.Second

// WaitAckMsg reports the wait's outcome and the receiver's current
// SiteTime, which the frontend caches to skip already-satisfied waits.
type WaitAckMsg struct {
	ID   uint64
	OK   bool
	Site vclock.V
}

// Front-door error classes, for transports (HTTP) to map onto status
// codes. Token parse failures come back wrapped in ErrBadToken.
var (
	// ErrBadToken marks an unparseable or shape-mismatched session token.
	ErrBadToken = errors.New("geostore: bad session token")
	// ErrVisibilityTimeout marks a read whose causal history did not
	// become visible locally within the wait budget (origin datacenter
	// partitioned or down). The client may retry; its token is unchanged.
	ErrVisibilityTimeout = errors.New("geostore: timed out waiting for causal visibility")
	// ErrOpTimeout marks a partition round trip that never completed
	// (misrouted deployment or a down partition process).
	ErrOpTimeout = errors.New("geostore: partition round trip timed out")
	// ErrFrontendClosed marks operations issued after Close.
	ErrFrontendClosed = errors.New("geostore: frontend closed")
)

// FrontendConfig parameterises one front door.
type FrontendConfig struct {
	// Fabric carries the round trips; the frontend registers
	// fabric.FrontendAddr(DC, Index) on it.
	Fabric fabric.Fabric
	// DC is the datacenter whose partitions and receiver serve this
	// frontend's clients.
	DC types.DCID
	// DCs and Partitions describe the deployment shape (every process
	// must agree, like Config.Partitions).
	DCs        int
	Partitions int
	// Index distinguishes multiple frontends within one datacenter.
	Index int
	// Scalar issues scalar session tokens (the §4 metadata ablation)
	// instead of vectors.
	Scalar bool
	// WaitTimeout bounds the migration visibility wait. Default 30s.
	WaitTimeout time.Duration
	// OpTimeout bounds partition round trips. Default 10s.
	OpTimeout time.Duration
}

// Frontend serves causal get/put to clients, identified across requests
// only by their session tokens. Safe for concurrent use.
type Frontend struct {
	fab   fabric.Fabric
	local fabric.Addr
	dc    types.DCID
	dcs   int
	ring  kvstore.Ring
	mode  session.Mode

	waitTimeout time.Duration
	opTimeout   time.Duration

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan any
	closed  bool
	quit    chan struct{}

	// site caches the receiver's last reported SiteTime; waits whose
	// dependencies it already covers are skipped locally.
	siteMu sync.Mutex
	site   vclock.V

	// Operation metrics, exported on -metrics-addr by cmd/eunomia-server.
	Gets, Puts, OpErrors    metrics.Counter
	Waits, WaitTimeouts     metrics.Counter
	GetLat, PutLat, WaitLat *metrics.Histogram
}

// NewFrontend builds a front door and registers its ack endpoint on the
// fabric.
func NewFrontend(fc FrontendConfig) *Frontend {
	if fc.DCs <= 0 {
		fc.DCs = 1
	}
	if fc.Partitions <= 0 {
		fc.Partitions = 1
	}
	if fc.WaitTimeout <= 0 {
		fc.WaitTimeout = 30 * time.Second
	}
	if fc.OpTimeout <= 0 {
		fc.OpTimeout = 10 * time.Second
	}
	mode := session.Vector
	if fc.Scalar {
		mode = session.Scalar
	}
	f := &Frontend{
		fab:         fc.Fabric,
		local:       fabric.FrontendAddr(fc.DC, fc.Index),
		dc:          fc.DC,
		dcs:         fc.DCs,
		ring:        kvstore.NewRing(fc.Partitions),
		mode:        mode,
		waitTimeout: fc.WaitTimeout,
		opTimeout:   fc.OpTimeout,
		pending:     make(map[uint64]chan any),
		quit:        make(chan struct{}),
		site:        vclock.New(fc.DCs),
		GetLat:      metrics.NewHistogram(),
		PutLat:      metrics.NewHistogram(),
		WaitLat:     metrics.NewHistogram(),
	}
	f.fab.Register(f.local, f.handle)
	return f
}

// Addr returns the frontend's fabric endpoint.
func (f *Frontend) Addr() fabric.Addr { return f.local }

// Mode returns the session mode the frontend issues tokens in.
func (f *Frontend) Mode() session.Mode { return f.mode }

// Close unregisters the frontend and fails in-flight operations.
func (f *Frontend) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	close(f.quit)
	f.mu.Unlock()
	f.fab.Unregister(f.local)
}

// handle routes acknowledgements back to their waiting round trips.
func (f *Frontend) handle(msg fabric.Message) {
	var id uint64
	switch v := msg.Payload.(type) {
	case ClientReadAckMsg:
		id = v.ID
	case ClientWriteAckMsg:
		id = v.ID
	case WaitAckMsg:
		id = v.ID
	default:
		return
	}
	f.mu.Lock()
	ch := f.pending[id]
	delete(f.pending, id)
	f.mu.Unlock()
	if ch != nil {
		ch <- msg.Payload
	}
}

// roundTrip sends one request built from a fresh ID and waits for its ack.
func (f *Frontend) roundTrip(to fabric.Addr, build func(id uint64) any, timeout time.Duration) (any, error) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return nil, ErrFrontendClosed
	}
	f.nextID++
	id := f.nextID
	ch := make(chan any, 1)
	f.pending[id] = ch
	f.mu.Unlock()

	f.fab.Send(f.local, to, build(id))

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case p := <-ch:
		return p, nil
	case <-f.quit:
		return nil, ErrFrontendClosed
	case <-timer.C:
		f.mu.Lock()
		delete(f.pending, id)
		f.mu.Unlock()
		return nil, ErrOpTimeout
	}
}

// GetResult is one read's outcome. Token carries the advanced session.
type GetResult struct {
	Value types.Value
	Found bool
	Token string
}

// PutResult is one write's outcome. Token carries the advanced session.
type PutResult struct {
	Token string
}

// Get serves Algorithm 1 READ for the session token: wait until the
// token's causal history is visible locally, read the owning partition,
// fold the version's vector into the session.
func (f *Frontend) Get(token string, key types.Key) (GetResult, error) {
	sess, err := session.Parse(token, f.mode, f.dcs)
	if err != nil {
		return GetResult{}, fmt.Errorf("%w: %v", ErrBadToken, err)
	}
	start := time.Now()
	if err := f.waitVisible(sess.Dep()); err != nil {
		f.OpErrors.Inc()
		return GetResult{}, err
	}
	pid := f.ring.Responsible(key)
	p, err := f.roundTrip(fabric.PartitionAddr(f.dc, pid), func(id uint64) any {
		return ClientReadMsg{ID: id, Key: key}
	}, f.opTimeout)
	if err != nil {
		f.OpErrors.Inc()
		return GetResult{}, err
	}
	ack, ok := p.(ClientReadAckMsg)
	if !ok {
		f.OpErrors.Inc()
		return GetResult{}, fmt.Errorf("geostore: frontend read got %T", p)
	}
	if ack.Found {
		sess.ObserveRead(ack.VTS)
	}
	f.Gets.Inc()
	f.GetLat.RecordDuration(time.Since(start))
	return GetResult{Value: ack.Value, Found: ack.Found, Token: sess.Token()}, nil
}

// Put serves Algorithm 1 UPDATE for the session token: ship the value and
// the session's dependency vector to the owning partition and install the
// returned vector timestamp.
func (f *Frontend) Put(token string, key types.Key, value types.Value) (PutResult, error) {
	sess, err := session.Parse(token, f.mode, f.dcs)
	if err != nil {
		return PutResult{}, fmt.Errorf("%w: %v", ErrBadToken, err)
	}
	start := time.Now()
	pid := f.ring.Responsible(key)
	p, err := f.roundTrip(fabric.PartitionAddr(f.dc, pid), func(id uint64) any {
		return ClientWriteMsg{ID: id, Key: key, Value: value, Dep: sess.Dep()}
	}, f.opTimeout)
	if err != nil {
		f.OpErrors.Inc()
		return PutResult{}, err
	}
	ack, ok := p.(ClientWriteAckMsg)
	if !ok {
		f.OpErrors.Inc()
		return PutResult{}, fmt.Errorf("geostore: frontend write got %T", p)
	}
	sess.ObserveUpdate(ack.VTS)
	f.Puts.Inc()
	f.PutLat.RecordDuration(time.Since(start))
	return PutResult{Token: sess.Token()}, nil
}

// waitVisible blocks until the local receiver's SiteTime dominates dep's
// remote entries. The local entry is trivially satisfied (local updates
// are visible at acceptance), and a single-datacenter deployment has no
// remote entries at all, so both skip the round trip — as does any wait
// the cached SiteTime already covers.
func (f *Frontend) waitVisible(dep vclock.V) error {
	if f.dcs <= 1 {
		return nil
	}
	need := false
	f.siteMu.Lock()
	for k := 0; k < f.dcs; k++ {
		if types.DCID(k) == f.dc {
			continue
		}
		if dep.Get(k) > f.site.Get(k) {
			need = true
			break
		}
	}
	f.siteMu.Unlock()
	if !need {
		return nil
	}
	f.Waits.Inc()
	start := time.Now()
	p, err := f.roundTrip(fabric.ReceiverAddr(f.dc), func(id uint64) any {
		return WaitMsg{ID: id, Dep: dep.Clone(), WaitNanos: int64(f.waitTimeout)}
	}, f.waitTimeout+f.opTimeout)
	if err != nil {
		f.WaitTimeouts.Inc()
		if errors.Is(err, ErrFrontendClosed) {
			return err
		}
		return ErrVisibilityTimeout
	}
	ack, ok := p.(WaitAckMsg)
	if !ok {
		return fmt.Errorf("geostore: frontend wait got %T", p)
	}
	f.siteMu.Lock()
	f.site.Merge(ack.Site)
	f.siteMu.Unlock()
	f.WaitLat.RecordDuration(time.Since(start))
	if !ack.OK {
		f.WaitTimeouts.Inc()
		return ErrVisibilityTimeout
	}
	return nil
}
