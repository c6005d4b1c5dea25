package main

import (
	"sync"
	"testing"
	"time"
)

// fakeDoor keeps one key-value map per DC; a put reaches every DC at
// once. Faults are scripted.
type fakeDoor struct {
	mu       sync.Mutex // the preload calls from two workers
	data     []map[string][]byte
	failPut  bool
	staleGet bool // gets at DC 1 miss every key
}

func newFakeDoor(dcs int) *fakeDoor {
	d := &fakeDoor{}
	for i := 0; i < dcs; i++ {
		d.data = append(d.data, map[string][]byte{})
	}
	return d
}

func (d *fakeDoor) get(_, dc int, tok, key string) reply {
	d.mu.Lock()
	defer d.mu.Unlock()
	v, ok := d.data[dc][key]
	if d.staleGet && dc == 1 {
		ok = false
	}
	return reply{found: ok, value: v, token: tok}
}

func (d *fakeDoor) put(_, dc int, tok, key string, val []byte) reply {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.failPut {
		return reply{fail: "injected"}
	}
	for m := range d.data {
		d.data[m][key] = val
	}
	return reply{token: tok + "x"}
}

// preloaded returns a runner over d whose preload has run: keys 0..9.
func preloaded(d *fakeDoor) *storeLoad {
	s := newStoreLoad(d, len(d.data), 10, 16, 1, make([]byte, 8), nil, "fake")
	s.preload(&tally{}, d)
	return s
}

func TestStoreLoadCountsEachFailureOnce(t *testing.T) {
	cases := []struct {
		name             string
		door             func(*fakeDoor)
		op               schedOp
		ok               bool
		attempted, fails int64
		reason           string
	}{
		{"get hit", nil, schedOp{kind: opGet, id: 100, key: preKey(3)}, true, 1, 0, ""},
		{"get of a lost key", nil, schedOp{kind: opGet, id: 100, key: preKey(99)}, false, 1, 1, "get: preloaded key not found"},
		{"put refused", func(d *fakeDoor) { d.failPut = true }, schedOp{kind: opPut, id: 100, key: preKey(3)}, false, 1, 1, "put: injected"},
		{"migration whose put is refused", func(d *fakeDoor) { d.failPut = true },
			schedOp{kind: opMigrate, id: 100, key: "m100", to: 1}, false, 2, 2, "migrate: read skipped, put failed"},
		{"migration reading nothing", func(d *fakeDoor) { d.staleGet = true },
			schedOp{kind: opMigrate, id: 100, key: "m100", to: 1}, false, 2, 1, "migrate: read-your-writes violation"},
		{"migration", nil, schedOp{kind: opMigrate, id: 100, key: "m100", to: 1}, true, 2, 0, ""},
	}
	for _, c := range cases {
		d := newFakeDoor(2)
		s := preloaded(d)
		if c.door != nil {
			c.door(d) // faults start after the preload
		}
		res := newResult()
		ok := s.do(res, 0, &c.op, time.Now(), span{})
		if ok != c.ok || res.attempted != c.attempted || res.failed != c.fails {
			t.Errorf("%s: ok=%v attempted=%d failed=%d, want %v %d %d (%v)",
				c.name, ok, res.attempted, res.failed, c.ok, c.attempted, c.fails, res.reasons)
		}
		if c.reason != "" && res.reasons[c.reason] == 0 {
			t.Errorf("%s: reasons %v lack %q", c.name, res.reasons, c.reason)
		}
		if res.wrong != 0 {
			t.Errorf("%s: %d wrong outputs, want none", c.name, res.wrong)
		}
	}
}

func TestStoreLoadFlagsAnotherKeysValue(t *testing.T) {
	d := newFakeDoor(1)
	s := preloaded(d)
	d.data[0][preKey(1)] = value(2, nil, 16) // key 1 now holds key 2's value
	res := newResult()
	if s.do(res, 0, &schedOp{kind: opGet, id: 100, key: preKey(1)}, time.Now(), span{}) {
		t.Fatal("a read of another key's value succeeded")
	}
	if res.wrong != 1 || res.failed != 1 {
		t.Fatalf("wrong=%d failed=%d, want 1 1", res.wrong, res.failed)
	}
}
