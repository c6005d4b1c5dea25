package partition

// Disk-backed partition tests: the kvstore.Persistent snapshot contract
// (segments are the version authority, the WAL snapshot keeps marks
// only) across restart, and the bigger-than-memory invariant at
// partition level.

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"eunomia/internal/kvstore"
	"eunomia/internal/types"
)

func openDiskBackend(t *testing.T, dir string, o kvstore.DiskOptions) *kvstore.Disk {
	t.Helper()
	d, err := kvstore.OpenDisk(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDiskBackedPartitionSnapshotAndRecover runs the crash-recovery cycle
// with the disk backend: after a snapshot the WAL holds no versions at
// all (marks only — the segments vouch for the data), and a successor
// process recovers values, watermarks, the sequence counter, and clock
// monotonicity from segments + WAL suffix.
func TestDiskBackedPartitionSnapshotAndRecover(t *testing.T) {
	dir := t.TempDir()
	st := openStore(t, filepath.Join(dir, "wal"))
	backend := openDiskBackend(t, filepath.Join(dir, "segments"), kvstore.DiskOptions{})
	p := New(Config{DC: 0, ID: 0, DCs: 2, Store: st, Backend: backend})

	session := dep(0, 0)
	for i := 0; i < 200; i++ {
		session = p.Update(types.Key(fmt.Sprintf("key%d", i%10)), []byte(fmt.Sprintf("v%d", i)), session)
	}
	lastTS := uint64(session.Get(0))
	remote := &types.Update{Key: "remote", Value: []byte("r"), Origin: 1, TS: 7_777, VTS: dep(0, 7_777)}
	if !p.ApplyRemote(remote, time.Now()) {
		t.Fatal("remote apply failed")
	}

	snapped, err := p.MaybeSnapshot(1024)
	if err != nil {
		t.Fatal(err)
	}
	if !snapped {
		t.Fatal("log did not trigger a 1KiB-threshold snapshot")
	}
	if after := p.WALSize(); after != 0 {
		t.Fatalf("log still %d bytes after snapshot", after)
	}
	// Post-snapshot traffic lands in the fresh log AND the segments.
	p.Update("key0", []byte("post-snap"), session)
	p.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := backend.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openStore(t, filepath.Join(dir, "wal"))
	defer st2.Close()
	backend2 := openDiskBackend(t, filepath.Join(dir, "segments"), kvstore.DiskOptions{})
	defer backend2.Close()
	p2 := New(Config{DC: 0, ID: 0, DCs: 2, Store: st2, Backend: backend2})
	if err := p2.Recover(); err != nil {
		t.Fatal(err)
	}

	if v, _ := p2.Read("key0"); string(v) != "post-snap" {
		t.Fatalf("key0 recovered as %q, want post-snap", v)
	}
	for i := 191; i < 200; i++ {
		if i%10 == 0 {
			continue
		}
		v, _ := p2.Read(types.Key(fmt.Sprintf("key%d", i%10)))
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("key%d recovered as %q, want v%d", i%10, v, i)
		}
	}
	if v, _ := p2.Read("remote"); string(v) != "r" {
		t.Fatalf("remote update lost: %q", v)
	}
	if got := p2.AppliedRemoteWatermark(1); got != 7_777 {
		t.Fatalf("applied watermark recovered as %v, want 7777", got)
	}
	// Property 2 across the crash: the segments floored the clock (the
	// WAL kept no versions to observe), so the first post-recovery update
	// must still timestamp above everything pre-crash.
	vts := p2.Update("post-crash", []byte("x"), dep(0, 0))
	if uint64(vts.Get(0)) <= lastTS {
		t.Fatalf("post-recovery timestamp %v not above pre-crash %v", vts.Get(0), lastTS)
	}
	// Sequence counter resumed past the logged ones: 200 + 1 post-snap.
	p2.seqMu.Lock()
	seq := p2.seq
	p2.seqMu.Unlock()
	if seq < 202 {
		t.Fatalf("sequence counter resumed at %d, want >= 202", seq)
	}
}

// TestDiskBackedPartitionLargerThanBudget drives a dataset past the disk
// backend's resident-memory budget through the partition's normal write
// path and checks every byte stays readable while the resident index
// remains inside the budget — the bigger-than-memory invariant.
func TestDiskBackedPartitionLargerThanBudget(t *testing.T) {
	const budget = 128 << 10
	dir := t.TempDir()
	st := openStore(t, filepath.Join(dir, "wal"))
	defer st.Close()
	backend := openDiskBackend(t, filepath.Join(dir, "segments"), kvstore.DiskOptions{})
	defer backend.Close()
	p := New(Config{DC: 0, ID: 0, DCs: 1, Store: st, Backend: backend})
	defer p.Close()

	val := make([]byte, 2048)
	session := dep(0)
	const keys = 256 // 512 KiB of values against a 128 KiB budget
	for i := 0; i < keys; i++ {
		copy(val, fmt.Sprintf("payload%d|", i))
		session = p.Update(types.Key(fmt.Sprintf("key%04d", i)), val, session)
	}
	if live := backend.Bytes(); live <= budget {
		t.Fatalf("dataset %d did not outgrow the %d budget", live, budget)
	}
	if res := backend.ResidentBytes(); res >= budget {
		t.Fatalf("resident index %d outgrew the %d budget", res, budget)
	}
	for i := 0; i < keys; i++ {
		v, _ := p.Read(types.Key(fmt.Sprintf("key%04d", i)))
		want := fmt.Sprintf("payload%d|", i)
		if len(v) != len(val) || string(v[:len(want)]) != want {
			t.Fatalf("key%04d read back wrong: %q...", i, v[:16])
		}
	}
}
