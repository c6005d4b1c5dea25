package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"eunomia/internal/hlc"
	"eunomia/internal/types"
	"eunomia/internal/vclock"
)

func tmpLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "partition.wal")
}

func replayAll(t *testing.T, path string) [][]byte {
	t.Helper()
	var out [][]byte
	if err := Replay(path, func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := tmpLog(t)
	l, err := Open(path, SyncOnFlush)
	if err != nil {
		t.Fatal(err)
	}
	var want [][]byte
	for i := 0; i < 100; i++ {
		rec := []byte(fmt.Sprintf("record-%04d", i))
		want = append(want, rec)
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, path)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReplayMissingFileIsEmpty(t *testing.T) {
	if err := Replay(filepath.Join(t.TempDir(), "absent.wal"), func([]byte) error {
		t.Fatal("callback invoked for a missing file")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestReopenAppends(t *testing.T) {
	path := tmpLog(t)
	for round := 0; round < 3; round++ {
		l, err := Open(path, SyncGroupCommit)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append([]byte{byte(round)}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	got := replayAll(t, path)
	if len(got) != 3 || got[2][0] != 2 {
		t.Fatalf("reopen lost records: %v", got)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	path := tmpLog(t)
	l, err := Open(path, SyncGroupCommit)
	if err != nil {
		t.Fatal(err)
	}
	l.Append([]byte("durable-1"))
	l.Append([]byte("durable-2"))
	l.Close()

	// Simulate a crash mid-append: garbage half-record at the tail.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x09, 0x00, 0x00, 0x00, 0xde, 0xad}) // truncated header+cksum
	f.Close()

	l2, err := Open(path, SyncGroupCommit)
	if err != nil {
		t.Fatal(err)
	}
	if err := l2.Append([]byte("durable-3")); err != nil {
		t.Fatal(err)
	}
	l2.Close()

	got := replayAll(t, path)
	if len(got) != 3 {
		t.Fatalf("replayed %d records, want 3 (torn tail must be discarded)", len(got))
	}
	if string(got[2]) != "durable-3" {
		t.Fatalf("append after recovery corrupted: %q", got[2])
	}
}

func TestCorruptPayloadEndsReplay(t *testing.T) {
	path := tmpLog(t)
	l, _ := Open(path, SyncGroupCommit)
	l.Append([]byte("good"))
	l.Append([]byte("soon-corrupt"))
	l.Close()

	// Flip a payload byte of the second record.
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	os.WriteFile(path, data, 0o644)

	got := replayAll(t, path)
	if len(got) != 1 || string(got[0]) != "good" {
		t.Fatalf("corrupt record not fenced: %q", got)
	}
}

func TestClosedLogErrors(t *testing.T) {
	path := tmpLog(t)
	l, _ := Open(path, SyncOnFlush)
	l.Close()
	if err := l.Append([]byte("x")); err != ErrClosed {
		t.Fatalf("Append after Close: %v", err)
	}
	if err := l.Flush(); err != ErrClosed {
		t.Fatalf("Flush after Close: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestSizeTracksAppends(t *testing.T) {
	path := tmpLog(t)
	l, _ := Open(path, SyncOnFlush)
	defer l.Close()
	if l.Size() != 0 {
		t.Fatal("fresh log not empty")
	}
	l.Append(make([]byte, 100))
	if l.Size() != 108 {
		t.Fatalf("Size = %d, want 108", l.Size())
	}
}

func TestUpdateRecordRoundTrip(t *testing.T) {
	u := &types.Update{
		Key:       "user:42",
		Value:     types.Value("payload bytes"),
		Origin:    2,
		Partition: 5,
		Seq:       99,
		TS:        123456789,
		HTS:       987654321,
		VTS:       vclock.V{10, 20, 30},
		CreatedAt: 1718200000000,
	}
	rec := EncodeUpdate(KindLocal, u)
	kind, got, err := DecodeUpdate(rec)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindLocal {
		t.Fatalf("kind = %d", kind)
	}
	if !reflect.DeepEqual(u, got) {
		t.Fatalf("round trip mismatch:\n  in : %+v\n  out: %+v", u, got)
	}
}

func TestUpdateRecordRoundTripProperty(t *testing.T) {
	f := func(key string, value []byte, origin uint8, part uint8, seq uint64,
		ts, hts uint64, vts []uint64, remote bool) bool {
		u := &types.Update{
			Key:       types.Key(key),
			Origin:    types.DCID(origin % 8),
			Partition: types.PartitionID(part),
			Seq:       seq,
			TS:        hlcTS(ts),
			HTS:       hlcTS(hts),
		}
		if len(value) > 0 {
			u.Value = types.Value(value)
		}
		if len(vts) > 0 {
			if len(vts) > 64 {
				vts = vts[:64]
			}
			u.VTS = make(vclock.V, len(vts))
			for i, x := range vts {
				u.VTS[i] = hlcTS(x)
			}
		}
		kind := KindLocal
		if remote {
			kind = KindRemote
		}
		k2, got, err := DecodeUpdate(EncodeUpdate(kind, u))
		return err == nil && k2 == kind && reflect.DeepEqual(u, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, _, err := DecodeUpdate(nil); err == nil {
		t.Fatal("nil accepted")
	}
	if _, _, err := DecodeUpdate([]byte{0xff, 1, 2, 3}); err == nil {
		t.Fatal("bad kind accepted")
	}
	rec := EncodeUpdate(KindLocal, &types.Update{Key: "k"})
	if _, _, err := DecodeUpdate(rec[:len(rec)-1]); err == nil {
		t.Fatal("truncated record accepted")
	}
	if _, _, err := DecodeUpdate(append(rec, 0)); err == nil {
		t.Fatal("over-long record accepted")
	}
}

func hlcTS(x uint64) hlc.Timestamp { return hlc.Timestamp(x) }

// FuzzDecodeUpdate hardens the record parser: arbitrary bytes must never
// panic, and every record the encoder produces must round-trip.
func FuzzDecodeUpdate(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{KindLocal})
	f.Add(EncodeUpdate(KindLocal, &types.Update{Key: "k", Value: types.Value("v")}))
	f.Add(EncodeUpdate(KindRemote, &types.Update{
		Key: "key", VTS: vclock.V{1, 2, 3}, TS: 9, Seq: 2,
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, u, err := DecodeUpdate(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode to an equivalent record.
		re := EncodeUpdate(kind, u)
		k2, u2, err2 := DecodeUpdate(re)
		if err2 != nil || k2 != kind {
			t.Fatalf("re-encode broke: %v %v", k2, err2)
		}
		if !reflect.DeepEqual(u, u2) {
			t.Fatalf("round-trip mismatch:\n%+v\n%+v", u, u2)
		}
	})
}

// TestIdleFlushDoesNotSync: a Flush with nothing appended since the last
// sync costs no fsync under either policy (an idle durable node flushes
// every WAL on each batch interval), and a sticky sync error is still
// returned by an idle Flush.
func TestIdleFlushDoesNotSync(t *testing.T) {
	for name, policy := range map[string]SyncPolicy{"group": SyncGroupCommit, "flush": SyncOnFlush} {
		t.Run(name, func(t *testing.T) {
			var syncs int
			var mu sync.Mutex
			l, err := OpenOptions(tmpLog(t), Options{Policy: policy, InjectSync: func() error {
				mu.Lock()
				syncs++
				mu.Unlock()
				return nil
			}})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			count := func() int {
				mu.Lock()
				defer mu.Unlock()
				return syncs
			}
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := count(); got != 0 {
				t.Fatalf("flushing a fresh log took %d fsyncs, want 0", got)
			}
			if err := l.Append([]byte("x")); err != nil {
				t.Fatal(err)
			}
			if err := l.Flush(); err != nil {
				t.Fatal(err)
			}
			if got := count(); got != 1 {
				t.Fatalf("one append and a flush took %d fsyncs, want 1", got)
			}
			for i := 0; i < 100; i++ {
				if err := l.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if got := count(); got != 1 {
				t.Fatalf("100 idle flushes took %d more fsyncs, want 0", got-1)
			}

			sticky := errors.New("disk gone")
			l.mu.Lock()
			l.syncErr = sticky
			l.mu.Unlock()
			if err := l.Flush(); err != sticky {
				t.Fatalf("idle Flush with a sticky sync error returned %v, want %v", err, sticky)
			}
		})
	}
}
