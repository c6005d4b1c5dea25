package harness

// Codec micro-benchmark: the wire codec on the exact message shapes the
// hot fabric edges carry — metadata stream frames (MultiBatchMsg), windowed releases
// (ReleaseMsg), and receiver shipping (ShipMsg).

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"eunomia/internal/fabric"
	"eunomia/internal/geostore"
	"eunomia/internal/hlc"
	"eunomia/internal/types"
	"eunomia/internal/vclock"
	"eunomia/internal/wire"
)

// CodecBenchOptions parameterises the codec benchmark.
type CodecBenchOptions struct {
	// Iters is the encode+decode round trips measured per message type
	// (default 20000).
	Iters int
	// BatchOps is how many updates a stream frame/ShipMsg carries
	// (default 8, a typical 1ms batch).
	BatchOps int
	// PayloadBytes sizes each update's value (default 100, the paper's
	// object size).
	PayloadBytes int
}

func (o *CodecBenchOptions) fill() {
	if o.Iters <= 0 {
		o.Iters = 20000
	}
	if o.BatchOps <= 0 {
		o.BatchOps = 8
	}
	if o.PayloadBytes <= 0 {
		o.PayloadBytes = 100
	}
}

// CodecPoint reports one message type's encode+decode round trips per
// second, steady-state encoded size, and allocations per round trip.
type CodecPoint struct {
	Message    string
	WirePerSec float64
	WireBytes  int
	WireAllocs float64
}

// CodecBenchResult reports every message type's point.
type CodecBenchResult struct {
	Points []CodecPoint
}

// CodecBench measures the wire codec for each hot-path message type. The
// workload is encode+decode of the same value repeatedly — the steady
// state of a long-lived connection.
func CodecBench(o CodecBenchOptions) (CodecBenchResult, error) {
	o.fill()
	update := func(seq int) *types.Update {
		return &types.Update{
			Key:       types.Key(fmt.Sprintf("bench-key-%d", seq)),
			Value:     bytes.Repeat([]byte{0xab}, o.PayloadBytes),
			Origin:    1,
			Partition: 3,
			Seq:       uint64(seq),
			TS:        hlc.Timestamp(80e12)<<16 + hlc.Timestamp(seq),
			VTS:       vclock.V{hlc.Timestamp(79e12) << 16, hlc.Timestamp(80e12)<<16 + hlc.Timestamp(seq), 0},
			CreatedAt: 1753900000000000000 + int64(seq),
		}
	}
	batch := make([]*types.Update, o.BatchOps)
	for i := range batch {
		batch[i] = update(i + 1)
	}
	msgs := []struct {
		name    string
		payload any
	}{
		{"MultiBatchMsg", fabric.MultiBatchMsg{Batches: []types.PartitionBatch{{Partition: 3, Base: batch[0].TS - 1, Ops: batch, Mark: batch[len(batch)-1].TS}}}},
		{"ReleaseMsg", geostore.ReleaseMsg{Epoch: 7, Seq: 99, U: update(1), ArrivedUnixNano: 1753900000000000000}},
		{"ShipMsg", geostore.ShipMsg{Origin: 1, Ops: batch}},
	}

	var res CodecBenchResult
	for _, m := range msgs {
		wirePerSec, wireBytes, wireAllocs, err := wireLeg(m.payload, o.Iters)
		if err != nil {
			return res, fmt.Errorf("%s wire leg: %w", m.name, err)
		}
		res.Points = append(res.Points, CodecPoint{
			Message:    m.name,
			WirePerSec: wirePerSec,
			WireBytes:  wireBytes,
			WireAllocs: wireAllocs,
		})
	}
	return res, nil
}

// wireLeg measures encode+decode round trips through the wire codec,
// reusing one buffer the way the transport's frame writer does.
func wireLeg(payload any, iters int) (perSec float64, size int, allocsPerOp float64, err error) {
	buf := wire.GetBuf()
	defer func() { wire.PutBuf(buf) }()
	// Warm: size probe and registry check.
	buf, err = wire.AppendPayload(buf[:0], payload)
	if err != nil {
		return 0, 0, 0, err
	}
	size = len(buf)

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		buf, err = wire.AppendPayload(buf[:0], payload)
		if err != nil {
			return 0, 0, 0, err
		}
		d := wire.NewDec(buf)
		if _, err = wire.ReadPayload(&d); err != nil {
			return 0, 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return float64(iters) / elapsed.Seconds(), size,
		float64(ms1.Mallocs-ms0.Mallocs) / float64(iters), nil
}
