package geostore

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"eunomia/internal/hlc"
	"eunomia/internal/simnet"
	"eunomia/internal/types"
	"eunomia/internal/vclock"
)

// frontStore builds a small two-DC deployment with a fast simulated WAN.
func frontStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore(Config{
		DCs:        2,
		Partitions: 2,
		Delay:      simnet.LatencyMatrix(simnet.PaperRTTs(0.01), 0),
	})
	t.Cleanup(s.Close)
	return s
}

func TestFrontendReadYourWrite(t *testing.T) {
	s := frontStore(t)
	fe := s.Frontend(0)

	put, err := fe.Put("", "alpha", types.Value("one"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fe.Get(put.Token, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Found || string(got.Value) != "one" {
		t.Fatalf("read back found=%v value=%q", got.Found, got.Value)
	}

	miss, err := fe.Get(got.Token, "never-written")
	if err != nil {
		t.Fatal(err)
	}
	if miss.Found {
		t.Fatal("read of a never-written key reported Found")
	}
}

func TestFrontendRejectsBadToken(t *testing.T) {
	s := frontStore(t)
	fe := s.Frontend(0)
	if _, err := fe.Get("cs1:v:zz,1", "k"); !errors.Is(err, ErrBadToken) {
		t.Fatalf("bad token error = %v", err)
	}
	if _, err := fe.Put("cs1:s:1", "k", types.Value("v")); !errors.Is(err, ErrBadToken) {
		t.Fatalf("scalar token at vector frontend = %v", err)
	}
}

// TestFrontendSessionMigration is the §4 migration guarantee end to end:
// a client writes at dc0's front door, carries its token to dc1's, and
// must read its own write there — the dc1 frontend blocks the read until
// the write (and everything before it) is applied at dc1.
func TestFrontendSessionMigration(t *testing.T) {
	s := frontStore(t)
	fe0, fe1 := s.Frontend(0), s.Frontend(1)

	token := ""
	for i := 0; i < 20; i++ {
		key := types.Key(fmt.Sprintf("migrate%d", i))
		want := fmt.Sprintf("value%d", i)
		put, err := fe0.Put(token, key, types.Value(want))
		if err != nil {
			t.Fatal(err)
		}
		got, err := fe1.Get(put.Token, key)
		if err != nil {
			t.Fatalf("migrated read %d: %v", i, err)
		}
		if !got.Found || string(got.Value) != want {
			t.Fatalf("migrated read %d: found=%v value=%q, want %q", i, got.Found, got.Value, want)
		}
		// Keep migrating back and forth on one session.
		back, err := fe0.Get(got.Token, key)
		if err != nil {
			t.Fatal(err)
		}
		token = back.Token
	}
	if fe1.Waits.Load() == 0 {
		t.Fatal("dc1 frontend never took a visibility wait; migration reads were not gated")
	}
}

// TestFrontendVisibilityTimeout hands a frontend a token claiming a remote
// fact from the future; the read must fail with ErrVisibilityTimeout
// rather than return stale data.
func TestFrontendVisibilityTimeout(t *testing.T) {
	s := frontStore(t)
	// A standalone front door on the same fabric, as a split-role process
	// would run it, with a tight wait budget.
	fe := NewFrontend(FrontendConfig{
		Fabric:      s.Network(),
		DC:          1,
		DCs:         2,
		Partitions:  2,
		Index:       1,
		WaitTimeout: 50 * time.Millisecond,
	})
	defer fe.Close()

	future := vclock.New(2)
	future.Set(0, hlc.FromTime(time.Now().Add(time.Hour)))
	sessTok := "cs1:v:" + fmt.Sprintf("%x,%x", uint64(future.Get(0)), uint64(future.Get(1)))

	if _, err := fe.Get(sessTok, "k"); !errors.Is(err, ErrVisibilityTimeout) {
		t.Fatalf("future-dep read error = %v, want ErrVisibilityTimeout", err)
	}
	if fe.WaitTimeouts.Load() == 0 {
		t.Fatal("wait timeout not counted")
	}
}

// TestFrontendCausalChainAcrossClients checks the transitive guarantee:
// client B reads A's write at dc1 (adopting its dependencies), writes a
// reaction at dc1, and client C must observe the reaction only at-or-after
// A's original write when reading through a dc0 front door with B's token.
func TestFrontendCausalChainAcrossClients(t *testing.T) {
	s := frontStore(t)
	fe0, fe1 := s.Frontend(0), s.Frontend(1)

	putA, err := fe0.Put("", "post", types.Value("original"))
	if err != nil {
		t.Fatal(err)
	}
	// B at dc1: read the post (gated on visibility), then reply.
	readB, err := fe1.Get(putA.Token, "post")
	if err != nil {
		t.Fatal(err)
	}
	if string(readB.Value) != "original" {
		t.Fatalf("B read %q", readB.Value)
	}
	putB, err := fe1.Put(readB.Token, "reply", types.Value("reaction"))
	if err != nil {
		t.Fatal(err)
	}
	// C carries B's token to dc0: the reply must be there, and so must
	// the post it depends on.
	readC, err := fe0.Get(putB.Token, "reply")
	if err != nil {
		t.Fatal(err)
	}
	if !readC.Found || string(readC.Value) != "reaction" {
		t.Fatalf("C read reply found=%v value=%q", readC.Found, readC.Value)
	}
	post, err := fe0.Get(readC.Token, "post")
	if err != nil {
		t.Fatal(err)
	}
	if !post.Found || string(post.Value) != "original" {
		t.Fatalf("C read post found=%v value=%q", post.Found, post.Value)
	}
}

// TestFrontendScalarAblation runs the migration loop under scalar tokens.
func TestFrontendScalarAblation(t *testing.T) {
	s := NewStore(Config{
		DCs:        2,
		Partitions: 2,
		ScalarMeta: true,
		Delay:      simnet.LatencyMatrix(simnet.PaperRTTs(0.01), 0),
	})
	defer s.Close()
	fe0, fe1 := s.Frontend(0), s.Frontend(1)

	put, err := fe0.Put("", "scalar-key", types.Value("sv"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := fe1.Get(put.Token, "scalar-key")
	if err != nil {
		t.Fatal(err)
	}
	if !got.Found || string(got.Value) != "sv" {
		t.Fatalf("scalar migrated read found=%v value=%q", got.Found, got.Value)
	}
}

// TestFrontendMigrationWaitParksOnSiteAdvance: a migrated read's
// visibility wait is answered by the receiver's SiteTime-advance
// notification, not by a poll: each read must return within 100 ms of
// the write becoming visible at the destination.
func TestFrontendMigrationWaitParksOnSiteAdvance(t *testing.T) {
	var mu sync.Mutex
	visibleAt := map[string]time.Time{}
	s := NewStore(Config{
		DCs:        2,
		Partitions: 2,
		Delay:      simnet.LatencyMatrix(simnet.PaperRTTs(0.01), 0),
		OnVisible: func(dest types.DCID, u *types.Update, _ time.Time) {
			if dest == 1 {
				mu.Lock()
				visibleAt[string(u.Key)] = time.Now()
				mu.Unlock()
			}
		},
	})
	defer s.Close()
	fe0, fe1 := s.Frontend(0), s.Frontend(1)

	token := ""
	for i := 0; i < 3; i++ {
		key := types.Key(fmt.Sprintf("parked%d", i))
		put, err := fe0.Put(token, key, types.Value("v"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := fe1.Get(put.Token, key)
		answered := time.Now()
		if err != nil || !got.Found {
			t.Fatalf("migrated read %d: found=%v err=%v", i, got.Found, err)
		}
		mu.Lock()
		at, ok := visibleAt[string(key)]
		mu.Unlock()
		if !ok {
			t.Fatalf("read %d answered before the write was visible at dc1", i)
		}
		if lag := answered.Sub(at); lag > 100*time.Millisecond {
			t.Fatalf("read %d answered %v after the write became visible; want ≤ 100ms", i, lag)
		}
		token = got.Token
	}
	if fe1.Waits.Load() == 0 {
		t.Fatal("dc1 frontend never took a visibility wait")
	}
}
