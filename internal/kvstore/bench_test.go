package kvstore

// Backend micro-benchmarks: the remote-apply hot path (ApplyBatch) on
// each backend, and the disk backend driven past a resident-memory
// budget. The mem-vs-disk pair lands in BENCH_ci.json via the CI bench
// job; the alloc counts guard the ≤1-alloc/update ApplyBatch contract
// that TestApplyBatchSteadyStateAllocs and its disk twin pin exactly.

import (
	"fmt"
	"testing"

	"eunomia/internal/hlc"
	"eunomia/internal/types"
)

// benchBatch builds a batch of winning entries: timestamps ascend from
// base so every apply takes the LWW install path, as a healthy remote
// stream's do.
func benchBatch(n, valBytes int, base hlc.Timestamp, keys int) []BatchEntry {
	val := make([]byte, valBytes)
	batch := make([]BatchEntry, n)
	for i := range batch {
		batch[i] = BatchEntry{
			Key: types.Key(fmt.Sprintf("key%05d", i%keys)),
			Ver: types.Version{Value: val, TS: base + hlc.Timestamp(i), Origin: 1},
		}
	}
	return batch
}

func benchApplyBatch(b *testing.B, s Store) {
	const batchSize, valBytes, keys = 512, 256, 4096
	// Pre-populate so every apply is an overwrite of an existing key —
	// the steady state — rather than a map grow.
	s.ApplyBatch(benchBatch(keys, valBytes, 1, keys))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := hlc.Timestamp(keys + i*batchSize + 1)
		batch := benchBatch(batchSize, valBytes, base, keys)
		if n := s.ApplyBatch(batch); n != batchSize {
			b.Fatalf("applied %d of %d", n, batchSize)
		}
	}
	b.SetBytes(int64(batchSize * valBytes))
}

// BenchmarkApplyBatchMem is the in-memory baseline for the remote-apply
// hot path.
func BenchmarkApplyBatchMem(b *testing.B) {
	s := New()
	defer s.Close()
	benchApplyBatch(b, s)
}

// BenchmarkApplyBatchDisk is the same stream against the log-structured
// disk backend: each batch appends once per touched shard segment and
// updates the in-memory index, so the slowdown versus Mem is the price
// of durability-grade persistence, not a per-update penalty.
func BenchmarkApplyBatchDisk(b *testing.B) {
	s := openDiskT(b, b.TempDir(), DiskOptions{})
	defer s.Close()
	benchApplyBatch(b, s)
}

// BenchmarkDiskApplyBiggerThanBudget drives the disk backend with a live
// dataset several times its resident-memory budget — the deployment the
// backend exists for — and interleaves reads so every iteration pays
// the pread path for values no longer resident.
func BenchmarkDiskApplyBiggerThanBudget(b *testing.B) {
	const budget = 1 << 20 // 1 MiB resident budget
	const keys, valBytes = 4096, 2048
	s := openDiskT(b, b.TempDir(), DiskOptions{})
	defer s.Close()
	s.ApplyBatch(benchBatch(keys, valBytes, 1, keys)) // 8 MiB of values
	if live := s.Bytes(); live <= budget {
		b.Fatalf("dataset %d did not outgrow the %d budget", live, budget)
	}
	if res := s.ResidentBytes(); res >= budget {
		b.Fatalf("resident index %d outgrew the %d budget", res, budget)
	}

	const batchSize = 256
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := hlc.Timestamp(keys + i*batchSize + 1)
		s.ApplyBatch(benchBatch(batchSize, valBytes, base, keys))
		for j := 0; j < batchSize; j++ {
			k := types.Key(fmt.Sprintf("key%05d", (i*batchSize+j*17)%keys))
			if _, ok := s.Get(k); !ok {
				b.Fatalf("lost %q", k)
			}
		}
	}
	b.SetBytes(int64(batchSize * valBytes))
}
