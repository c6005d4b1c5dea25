package wal

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestGroupCommitDurabilityOrdering is the ordering contract: no
// durability future completes before its record is synced. Concurrent
// appenders each verify, the moment their wait returns, that the durable
// watermark covers their LSN and that a replay of the live file — which
// sees exactly the bytes a crash at this instant would leave — already
// contains their record.
func TestGroupCommitDurabilityOrdering(t *testing.T) {
	path := tmpLog(t)
	l, err := OpenOptions(path, Options{Policy: SyncGroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec := []byte(fmt.Sprintf("w%02d-%04d", w, i))
				lsn, err := l.AppendNoWait(rec)
				if err != nil {
					errs <- err
					return
				}
				if err := l.WaitDurable(lsn); err != nil {
					errs <- err
					return
				}
				if d := l.DurableLSN(); d < lsn {
					errs <- fmt.Errorf("wait for lsn %d returned at durable %d", lsn, d)
					return
				}
				// Durable first: both watermarks only grow, so a commit
				// landing between the two reads cannot fake a violation.
				d := l.DurableLSN()
				if a := l.AppendedLSN(); d > a {
					errs <- fmt.Errorf("durable %d beyond appended %d", d, a)
					return
				}
				if i%8 != 0 {
					continue
				}
				// A crash right now must recover this record: replay the
				// live file and look for it.
				found := false
				if err := Replay(path, func(p []byte) error {
					if bytes.Equal(p, rec) {
						found = true
					}
					return nil
				}); err != nil {
					errs <- err
					return
				}
				if !found {
					errs <- fmt.Errorf("record %q acknowledged durable but absent from disk", rec)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := len(replayAll(t, path)); got != workers*perWorker {
		t.Fatalf("replayed %d records, want %d", got, workers*perWorker)
	}
}

// TestGroupCommitCoalescesConcurrentAppends pins the point of the policy:
// with concurrent blocking appenders and an accumulation window, the
// committer folds many records into each fsync, so commits stay well
// below records.
func TestGroupCommitCoalescesConcurrentAppends(t *testing.T) {
	m := NewSyncMetrics()
	l, err := OpenOptions(tmpLog(t), Options{
		Policy: SyncGroupCommit, GroupDelay: 2 * time.Millisecond, Metrics: m,
	})
	if err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got := m.Records.Load(); got != workers*perWorker {
		t.Fatalf("metrics counted %d records, want %d", got, workers*perWorker)
	}
	if c, r := m.Commits.Load(), m.Records.Load(); c >= r {
		t.Fatalf("no coalescing: %d commits for %d records", c, r)
	}
}

// TestGroupCommitCrashLosesAtMostUncommittedGroup is the loss-window
// bound: a crash loses only records no group commit has covered yet —
// everything at or below the durable watermark replays.
func TestGroupCommitCrashLosesAtMostUncommittedGroup(t *testing.T) {
	path := tmpLog(t)
	// A delay far beyond the test's lifetime freezes the committer in its
	// accumulation window, so the second half stays deliberately unsynced.
	l, err := OpenOptions(path, Options{
		Policy: SyncGroupCommit, GroupDelay: time.Hour, GroupMaxBatch: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	const committed, lost = 50, 50
	for i := 0; i < committed; i++ {
		if _, err := l.AppendNoWait([]byte(fmt.Sprintf("committed-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < lost; i++ {
		if _, err := l.AppendNoWait([]byte(fmt.Sprintf("uncommitted-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if a, d := l.AppendedLSN(), l.DurableLSN(); a != committed+lost || d != committed {
		t.Fatalf("watermarks appended=%d durable=%d, want %d/%d", a, d, committed+lost, committed)
	}
	l.abandon() // crash: no flush, no goodbye
	got := replayAll(t, path)
	if len(got) != committed {
		t.Fatalf("replayed %d records, want exactly the %d committed (crash must lose only the open group)", len(got), committed)
	}
	for i, rec := range got {
		if want := fmt.Sprintf("committed-%04d", i); string(rec) != want {
			t.Fatalf("record %d = %q, want %q", i, rec, want)
		}
	}
}

// TestGroupCommitSnapshotMarksDurable: a snapshot covers every appended
// record, so truncation advances the durable watermark and completes
// parked waiters instead of stranding them behind a committer whose
// window never fires.
func TestGroupCommitSnapshotMarksDurable(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStoreOptions(dir, Options{
		Policy: SyncGroupCommit, GroupDelay: time.Hour, GroupMaxBatch: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var lsn uint64
	for i := 0; i < 10; i++ {
		if lsn, err = s.AppendNoWait([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if d := s.DurableLSN(); d != 0 {
		t.Fatalf("durable %d before any commit", d)
	}
	if err := s.Snapshot(func(emit func([]byte) error) error {
		return emit([]byte("compacted"))
	}); err != nil {
		t.Fatal(err)
	}
	if d := s.DurableLSN(); d < lsn {
		t.Fatalf("snapshot left durable at %d, want >= %d", d, lsn)
	}
	if err := s.WaitDurable(lsn); err != nil { // must return immediately
		t.Fatal(err)
	}
}

// TestGroupCommitClosedErrors: the async API honors the closed contract.
func TestGroupCommitClosedErrors(t *testing.T) {
	l, err := OpenOptions(tmpLog(t), Options{Policy: SyncGroupCommit})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AppendNoWait([]byte("x")); err != ErrClosed {
		t.Fatalf("AppendNoWait after Close: %v", err)
	}
	if err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after Close: %v", err)
	}
	if err := l.WaitDurable(99); err != ErrClosed {
		t.Fatalf("WaitDurable past the end after Close: %v", err)
	}
}
