package partition

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"eunomia/internal/clock"
	"eunomia/internal/eunomia"
	"eunomia/internal/hlc"
	"eunomia/internal/types"
	"eunomia/internal/vclock"
	"eunomia/internal/wal"
)

func newPart(dc types.DCID, dcs int) *Partition {
	return New(Config{DC: dc, ID: 0, DCs: dcs, SeparateData: true})
}

func dep(entries ...uint64) vclock.V {
	v := make(vclock.V, len(entries))
	for i, e := range entries {
		v[i] = hlc.Timestamp(e)
	}
	return v
}

func TestReadMissingKey(t *testing.T) {
	p := newPart(0, 3)
	val, vts := p.Read("nope")
	if val != nil || vts != nil {
		t.Fatal("missing key should read nil/nil")
	}
}

func TestUpdateThenReadLocal(t *testing.T) {
	p := newPart(0, 3)
	vts := p.Update("k", []byte("v"), dep(0, 5, 7))
	if vts.Get(1) != 5 || vts.Get(2) != 7 {
		t.Fatalf("remote entries not copied from dependency: %v", vts)
	}
	if vts.Get(0) == 0 {
		t.Fatal("local entry not assigned")
	}
	val, got := p.Read("k")
	if string(val) != "v" || !got.Equal(vts) {
		t.Fatalf("Read = %q %v, want v %v", val, got, vts)
	}
}

func TestUpdateTimestampsStrictlyIncreasePerKeyChain(t *testing.T) {
	p := newPart(0, 1)
	var prev hlc.Timestamp
	session := dep(0)
	for i := 0; i < 100; i++ {
		vts := p.Update("k", []byte{byte(i)}, session)
		ts := vts.Get(0)
		if ts <= prev {
			t.Fatalf("Property 2 violated: %v then %v", prev, ts)
		}
		prev = ts
		session = vts
	}
}

// TestPropertyOneAcrossSkewedPartitions: an update causally after a read
// must carry a strictly larger timestamp even when the second partition's
// physical clock is far behind the first's.
func TestPropertyOneAcrossSkewedPartitions(t *testing.T) {
	ahead := New(Config{DC: 0, ID: 0, DCs: 1, Clock: clock.NewManual(10_000_000)})
	behind := New(Config{DC: 0, ID: 1, DCs: 1, Clock: clock.NewManual(1_000)})

	vts1 := ahead.Update("a", []byte("x"), dep(0))
	// The client reads a, then writes b on the lagging partition.
	vts2 := behind.Update("b", []byte("y"), vts1)
	if vts2.Get(0) <= vts1.Get(0) {
		t.Fatalf("Property 1 violated across skew: %v then %v", vts1, vts2)
	}
}

func TestUpdateValueIsCloned(t *testing.T) {
	p := newPart(0, 1)
	buf := []byte("abc")
	p.Update("k", buf, dep(0))
	buf[0] = 'z'
	val, _ := p.Read("k")
	if string(val) != "abc" {
		t.Fatal("partition stored the caller's buffer")
	}
}

// fakeShipper records shipped payloads.
type fakeShipper struct {
	mu  sync.Mutex
	ops []*types.Update
}

func (f *fakeShipper) ShipPayload(u *types.Update) {
	f.mu.Lock()
	f.ops = append(f.ops, u)
	f.mu.Unlock()
}

func (f *fakeShipper) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ops)
}

func TestMetadataAndPayloadSeparation(t *testing.T) {
	p := New(Config{DC: 0, ID: 0, DCs: 2, SeparateData: true})
	cluster := eunomia.NewCluster(1, eunomia.Config{Partitions: 1, StableInterval: time.Millisecond},
		func(_ types.ReplicaID, ops []*types.Update) {
			for _, u := range ops {
				if u.Value != nil {
					t.Error("metadata through Eunomia carried a payload despite separation")
				}
			}
		})
	defer cluster.Stop()
	shipper := &fakeShipper{}
	euc := eunomia.NewClient(eunomia.ClientConfig{Partition: 0, BatchInterval: time.Millisecond},
		eunomia.ClusterConns(cluster), p.Clock())
	p.Attach(euc, shipper)
	defer p.Close()

	p.Update("k", []byte("payload"), dep(0, 0))
	if shipper.count() != 1 {
		t.Fatal("payload not shipped to siblings")
	}
	sh := shipper.ops[0]
	if sh.Value == nil {
		t.Fatal("shipped payload missing value")
	}
}

func TestNoSeparationShipsFullUpdateThroughEunomia(t *testing.T) {
	p := New(Config{DC: 0, ID: 0, DCs: 2, SeparateData: false})
	got := make(chan *types.Update, 1)
	cluster := eunomia.NewCluster(1, eunomia.Config{Partitions: 1, StableInterval: time.Millisecond},
		func(_ types.ReplicaID, ops []*types.Update) {
			for _, u := range ops {
				select {
				case got <- u:
				default:
				}
			}
		})
	defer cluster.Stop()
	shipper := &fakeShipper{}
	euc := eunomia.NewClient(eunomia.ClientConfig{Partition: 0, BatchInterval: time.Millisecond},
		eunomia.ClusterConns(cluster), p.Clock())
	p.Attach(euc, shipper)
	defer p.Close()

	p.Update("k", []byte("inline"), dep(0, 0))
	select {
	case u := <-got:
		if string(u.Value) != "inline" {
			t.Fatal("combined mode lost the payload")
		}
	case <-time.After(time.Second):
		t.Fatal("nothing shipped")
	}
	if shipper.count() != 0 {
		t.Fatal("combined mode must not ship payloads separately")
	}
}

func TestApplyRemoteWaitsForPayload(t *testing.T) {
	var visible []*types.Update
	p := New(Config{DC: 1, ID: 0, DCs: 2, SeparateData: true,
		OnVisible: func(u *types.Update, _ time.Time) { visible = append(visible, u) }})

	full := &types.Update{
		Key: "k", Value: []byte("v"), Origin: 0, Partition: 0, Seq: 1,
		TS: 100, VTS: dep(100, 0),
	}
	meta := full.Meta()

	if p.ApplyRemote(meta, time.Now()) {
		t.Fatal("applied without payload")
	}
	if p.PayloadWait.Load() != 1 {
		t.Fatal("PayloadWait not counted")
	}
	// A retry with no payload arrival since is the same park; one after
	// an unrelated arrival is a new one.
	if p.ApplyRemoteBatch([]*types.Update{meta}, []time.Time{time.Now()}) != 0 || p.ApplyRemote(meta, time.Now()) {
		t.Fatal("applied without payload")
	}
	if got := p.PayloadWait.Load(); got != 1 {
		t.Fatalf("PayloadWait = %d after retries of one park, want 1", got)
	}
	other := &types.Update{Key: "o", Value: []byte("o"), Origin: 0, Partition: 0, Seq: 2, TS: 200, VTS: dep(200, 0)}
	if !p.ReceivePayload(other) {
		t.Fatal("an arrival did not report the park")
	}
	if p.ApplyRemote(meta, time.Now()) {
		t.Fatal("applied without payload")
	}
	if got := p.PayloadWait.Load(); got != 2 {
		t.Fatalf("PayloadWait = %d after a park that outlived an arrival, want 2", got)
	}

	p.ReceivePayload(full)
	if p.PendingPayloads() != 2 {
		t.Fatal("payload not buffered")
	}
	if !p.ApplyRemote(meta, time.Now()) {
		t.Fatal("apply failed with payload present")
	}
	if p.PendingPayloads() != 1 {
		t.Fatal("payload buffer leaked")
	}
	if len(visible) != 1 || string(visible[0].Value) != "v" {
		t.Fatal("visibility callback missing")
	}
	val, _ := p.Read("k")
	if string(val) != "v" {
		t.Fatal("remote value not readable")
	}
}

func TestApplyRemoteInlinePayload(t *testing.T) {
	p := New(Config{DC: 1, ID: 0, DCs: 2, SeparateData: false})
	full := &types.Update{
		Key: "k", Value: []byte("v"), Origin: 0, TS: 100, VTS: dep(100, 0),
	}
	if !p.ApplyRemote(full, time.Now()) {
		t.Fatal("inline apply failed")
	}
}

func TestDuplicatePayloadIgnored(t *testing.T) {
	p := New(Config{DC: 1, ID: 0, DCs: 2, SeparateData: true})
	full := &types.Update{Key: "k", Value: []byte("v"), Origin: 0, TS: 100, VTS: dep(100, 0)}
	p.ReceivePayload(full)
	p.ReceivePayload(full) // duplicate
	if p.PendingPayloads() != 1 {
		t.Fatal("duplicate payload buffered twice")
	}
}

// TestLocalOverwriteAfterRemoteApplyWinsEverywhere: after applying a
// remote version, a local update must carry a larger timestamp so LWW
// converges in the local writer's favour at every datacenter.
func TestLocalOverwriteAfterRemoteApplyWins(t *testing.T) {
	p := New(Config{DC: 1, ID: 0, DCs: 2, SeparateData: false})
	remote := &types.Update{Key: "k", Value: []byte("remote"), Origin: 0, TS: 5000_000, VTS: dep(5000_000, 0)}
	p.ApplyRemote(remote, time.Now())
	vts := p.Update("k", []byte("local"), dep(0, 0)) // client with no deps
	if vts.Get(1) <= remote.TS {
		t.Fatalf("local update ts %v does not dominate applied remote ts %v", vts.Get(1), remote.TS)
	}
	val, _ := p.Read("k")
	if string(val) != "local" {
		t.Fatal("local overwrite lost LWW at its own partition")
	}
}

func TestCountersAdvance(t *testing.T) {
	p := newPart(0, 1)
	p.Update("a", []byte("x"), dep(0))
	p.Read("a")
	if p.Updates.Load() != 1 || p.Reads.Load() != 1 {
		t.Fatal("counters not advancing")
	}
}

// TestApplyRemoteIdempotentAfterAckLoss models the cross-process receiver
// path: a release is applied (consuming the buffered payload) but the
// acknowledgement is lost, so the receiver retries the same metadata.
// The retry must report success — not wedge forever on the consumed
// payload — while genuinely missing payloads still report false.
func TestApplyRemoteIdempotentAfterAckLoss(t *testing.T) {
	p := newPart(1, 2)
	u := &types.Update{
		Key: "k", Value: []byte("v"), Origin: 0, Partition: 0,
		Seq: 1, TS: 10, VTS: dep(10, 0),
	}
	p.ReceivePayload(u)
	if !p.ApplyRemote(u.Meta(), time.Now()) {
		t.Fatal("first apply failed with payload buffered")
	}
	if !p.ApplyRemote(u.Meta(), time.Now()) {
		t.Fatal("retry after lost ack wedged instead of reporting success")
	}
	if got := p.RemoteApplied.Load(); got != 1 {
		t.Fatalf("RemoteApplied = %d, want 1 (retry must not double count)", got)
	}
	// Even if the key has since been overwritten locally (LWW), a
	// replayed release of the already-applied update must still report
	// success — the idempotency comes from the per-origin watermark,
	// not from the stored version.
	p.Update("k", []byte("newer"), dep(0, 0))
	if !p.ApplyRemote(u.Meta(), time.Now()) {
		t.Fatal("retry after local overwrite wedged")
	}
	missing := &types.Update{Key: "other", Origin: 0, Partition: 0, Seq: 2, TS: 11, VTS: dep(11, 0)}
	if p.ApplyRemote(missing.Meta(), time.Now()) {
		t.Fatal("apply succeeded with no payload and nothing stored")
	}
}

// TestConcurrentUpdatesAllReachEunomia drives one durable partition from
// two goroutines while its Eunomia client flushes every millisecond. Each
// update's WAL append sits between taking its timestamp and enqueuing it,
// so the two writers constantly enqueue out of timestamp order and flushes
// land in between. Every update must still be ingested — none filtered as
// a duplicate below a watermark another writer's update or a heartbeat
// already advanced — and shipped in timestamp order.
func TestConcurrentUpdatesAllReachEunomia(t *testing.T) {
	st, err := wal.OpenStore(t.TempDir(), wal.SyncGroupCommit)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	p := New(Config{DC: 0, ID: 0, DCs: 2, SeparateData: true, Store: st})
	var mu sync.Mutex
	var shipped []hlc.Timestamp
	cluster := eunomia.NewCluster(1, eunomia.Config{Partitions: 1, StableInterval: time.Millisecond},
		func(_ types.ReplicaID, ops []*types.Update) {
			mu.Lock()
			for _, u := range ops {
				shipped = append(shipped, u.TS)
			}
			mu.Unlock()
		})
	defer cluster.Stop()
	euc := eunomia.NewClient(eunomia.ClientConfig{Partition: 0, BatchInterval: time.Millisecond},
		eunomia.ClusterConns(cluster), p.Clock())
	p.Attach(euc, nil)
	defer p.Close()

	const writers, per = 2, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				p.Update(types.Key(fmt.Sprintf("w%d-%d", w, i)), []byte("v"), nil)
			}
		}(w)
	}
	wg.Wait()
	deadline := time.Now().Add(10 * time.Second)
	for {
		mu.Lock()
		n := len(shipped)
		mu.Unlock()
		if n == writers*per || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	stats := cluster.Replica(0).Stats()
	mu.Lock()
	defer mu.Unlock()
	if len(shipped) != writers*per || stats.Duplicates != 0 {
		t.Fatalf("shipped %d of %d updates, %d filtered as duplicates", len(shipped), writers*per, stats.Duplicates)
	}
	for i := 1; i < len(shipped); i++ {
		if shipped[i] <= shipped[i-1] {
			t.Fatalf("shipped out of timestamp order at %d: %v after %v", i, shipped[i], shipped[i-1])
		}
	}
}
