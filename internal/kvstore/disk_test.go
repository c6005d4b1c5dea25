package kvstore

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"eunomia/internal/hlc"
	"eunomia/internal/types"
	"eunomia/internal/vclock"
)

func openDiskT(t testing.TB, dir string, o DiskOptions) *Disk {
	t.Helper()
	d, err := OpenDisk(dir, o)
	if err != nil {
		t.Fatalf("OpenDisk: %v", err)
	}
	return d
}

func dver(val string, ts hlc.Timestamp, origin types.DCID) types.Version {
	v := vclock.New(2)
	v.Set(int(origin), ts)
	return types.Version{Value: []byte(val), TS: ts, VTS: v, Origin: origin}
}

func TestDiskGetPutApply(t *testing.T) {
	d := openDiskT(t, t.TempDir(), DiskOptions{})
	defer d.Close()

	if _, ok := d.Get("missing"); ok {
		t.Fatal("Get on empty store returned a version")
	}
	d.Put("a", dver("v1", 5, 0))
	got, ok := d.Get("a")
	if !ok || string(got.Value) != "v1" || got.TS != 5 {
		t.Fatalf("Get after Put = %+v, %v", got, ok)
	}
	// LWW: an older apply loses, a newer one wins.
	if d.Apply("a", dver("old", 3, 1)) {
		t.Fatal("older version won LWW")
	}
	if !d.Apply("a", dver("new", 9, 1)) {
		t.Fatal("newer version lost LWW")
	}
	got, _ = d.Get("a")
	if string(got.Value) != "new" || got.TS != 9 || got.Origin != 1 {
		t.Fatalf("after LWW: %+v", got)
	}
	// Ties break by origin, matching Mem.
	if d.Apply("a", dver("tie-lo", 9, 0)) {
		t.Fatal("tie with lower origin won")
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d, want 1", d.Len())
	}
}

// TestDiskMatchesMem drives both backends through the same operation
// sequence and checks they end indistinguishable — the interface's
// semantics contract.
func TestDiskMatchesMem(t *testing.T) {
	d := openDiskT(t, t.TempDir(), DiskOptions{})
	defer d.Close()
	m := New()

	ops := 0
	apply := func(k types.Key, v types.Version) {
		ops++
		dw := d.Apply(k, v)
		mw := m.Apply(k, v)
		if dw != mw {
			t.Fatalf("op %d: disk won=%v mem won=%v for %q %+v", ops, dw, mw, k, v)
		}
	}
	for i := 0; i < 500; i++ {
		k := types.Key(fmt.Sprintf("key%d", i%37))
		// A scrambled, colliding timestamp pattern exercises wins, losses
		// and ties across two origins.
		apply(k, dver(fmt.Sprintf("val%d", i), hlc.Timestamp((i*7)%101), types.DCID(i%2)))
	}
	var batch []BatchEntry
	for i := 0; i < 200; i++ {
		batch = append(batch, BatchEntry{
			Key: types.Key(fmt.Sprintf("key%d", i%53)),
			Ver: dver(fmt.Sprintf("b%d", i), hlc.Timestamp(50+(i*13)%101), types.DCID(i%2)),
		})
	}
	if dn, mn := d.ApplyBatch(batch), m.ApplyBatch(batch); dn != mn {
		t.Fatalf("ApplyBatch applied disk=%d mem=%d", dn, mn)
	}

	if d.Len() != m.Len() {
		t.Fatalf("Len: disk=%d mem=%d", d.Len(), m.Len())
	}
	m.ForEach(func(k types.Key, mv types.Version) {
		dv, ok := d.Get(k)
		if !ok {
			t.Fatalf("disk missing %q", k)
		}
		if string(dv.Value) != string(mv.Value) || dv.TS != mv.TS || dv.Origin != mv.Origin {
			t.Fatalf("divergence at %q: disk=%+v mem=%+v", k, dv, mv)
		}
	})
}

func TestDiskRestartRecoversIndex(t *testing.T) {
	dir := t.TempDir()
	d := openDiskT(t, dir, DiskOptions{})
	for i := 0; i < 300; i++ {
		k := types.Key(fmt.Sprintf("key%d", i%100)) // overwrites included
		d.Apply(k, dver(fmt.Sprintf("val%d", i), hlc.Timestamp(i+1), types.DCID(i%2)))
	}
	wantLen, wantBytes, wantMax := d.Len(), d.Bytes(), d.MaxTS()
	want := map[types.Key]types.Version{}
	d.ForEach(func(k types.Key, v types.Version) { want[k] = v })
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := openDiskT(t, dir, DiskOptions{})
	defer r.Close()
	if r.Len() != wantLen || r.Bytes() != wantBytes || r.MaxTS() != wantMax {
		t.Fatalf("reopen: Len=%d Bytes=%d MaxTS=%d, want %d %d %d",
			r.Len(), r.Bytes(), r.MaxTS(), wantLen, wantBytes, wantMax)
	}
	for k, v := range want {
		got, ok := r.Get(k)
		if !ok || string(got.Value) != string(v.Value) || got.TS != v.TS || got.Origin != v.Origin {
			t.Fatalf("reopen lost %q: got %+v, %v want %+v", k, got, ok, v)
		}
	}
	// And the recovered index still makes correct LWW decisions.
	if r.Apply("key0", dver("stale", 1, 0)) {
		t.Fatal("stale version won after reopen")
	}
}

func TestDiskTornTailTruncatedOnRestart(t *testing.T) {
	dir := t.TempDir()
	d := openDiskT(t, dir, DiskOptions{})
	for i := 0; i < 64; i++ {
		d.Put(types.Key(fmt.Sprintf("key%d", i)), dver("v", hlc.Timestamp(i+1), 0))
	}
	want := map[types.Key]string{}
	d.ForEach(func(k types.Key, v types.Version) { want[k] = string(v.Value) })
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Crash mid-write: garbage half-records on every segment tail.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("globbing segments: %v (%d)", err, len(segs))
	}
	for _, seg := range segs {
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}

	r := openDiskT(t, dir, DiskOptions{})
	defer r.Close()
	if r.Len() != len(want) {
		t.Fatalf("after torn tails Len = %d, want %d", r.Len(), len(want))
	}
	for k, val := range want {
		if got, ok := r.Get(k); !ok || string(got.Value) != val {
			t.Fatalf("torn tail ate %q", k)
		}
	}
}

// TestDiskMidFileCorruptionCountedNotSilent plants bit rot in the middle
// of a segment — a record that fails its checksum with valid records
// behind it. The open must still recover the valid prefix, but unlike a
// torn tail the dropped suffix is data loss and must be counted
// (CorruptionDropped) so operators can see it.
func TestDiskMidFileCorruptionCountedNotSilent(t *testing.T) {
	dir := t.TempDir()
	d := openDiskT(t, dir, DiskOptions{})
	for i := 0; i < 200; i++ {
		d.Put(types.Key(fmt.Sprintf("key%d", i)), dver("payload-payload-payload", hlc.Timestamp(i+1), 0))
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Corrupt one byte inside the SECOND record of some multi-record
	// segment: the first record must survive, everything after the flip
	// is dropped — and counted.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("globbing segments: %v (%d)", err, len(segs))
	}
	corrupted := false
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) < diskHeaderSize {
			continue // empty shard
		}
		n1 := int(binary.LittleEndian.Uint32(data[0:4]))
		second := diskHeaderSize + n1 // offset of the second record's header
		if second+diskHeaderSize+4 >= len(data) {
			continue // shard holds one record; pick a fuller one
		}
		data[second+diskHeaderSize+1] ^= 0x40 // bit rot in the second payload
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
		corrupted = true
		break
	}
	if !corrupted {
		t.Fatal("no segment large enough to corrupt mid-file")
	}

	r := openDiskT(t, dir, DiskOptions{})
	if got := r.CorruptionDropped(); got == 0 {
		t.Fatal("mid-file corruption truncated the segment without counting the loss")
	}
	if r.Len() >= 200 {
		t.Fatalf("Len = %d after dropping a corrupt suffix, want < 200", r.Len())
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The corrupt suffix was truncated away: a reopen of the now-clean
	// segments reports no further corruption.
	r2 := openDiskT(t, dir, DiskOptions{})
	defer r2.Close()
	if got := r2.CorruptionDropped(); got != 0 {
		t.Fatalf("reopen after truncation still reports %d corrupt-dropped bytes", got)
	}
}

// TestDiskTornTailNotCountedAsCorruption re-checks the crash path stays
// routine: an incomplete record at EOF is truncated with no corruption
// counted.
func TestDiskTornTailNotCountedAsCorruption(t *testing.T) {
	dir := t.TempDir()
	d := openDiskT(t, dir, DiskOptions{})
	for i := 0; i < 64; i++ {
		d.Put(types.Key(fmt.Sprintf("key%d", i)), dver("v", hlc.Timestamp(i+1), 0))
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*"))
	for _, seg := range segs {
		f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	r := openDiskT(t, dir, DiskOptions{})
	defer r.Close()
	if got := r.CorruptionDropped(); got != 0 {
		t.Fatalf("torn tails counted as corruption: %d bytes", got)
	}
}

func TestDiskCompactionReclaimsAndPreserves(t *testing.T) {
	dir := t.TempDir()
	d := openDiskT(t, dir, DiskOptions{CompactMinGarbage: 1})
	// Overwrite a small key set many times: almost everything is dead.
	for i := 0; i < 2000; i++ {
		d.Apply(types.Key(fmt.Sprintf("key%d", i%20)),
			dver(fmt.Sprintf("val%d", i), hlc.Timestamp(i+1), 0))
	}
	before, live := d.DiskSize(), d.Bytes()
	if before < live*10 {
		t.Fatalf("test setup: expected heavy garbage, disk=%d live=%d", before, live)
	}
	want := map[types.Key]string{}
	d.ForEach(func(k types.Key, v types.Version) { want[k] = string(v.Value) })

	if err := d.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if after := d.DiskSize(); after != d.Bytes() || after >= before {
		t.Fatalf("compaction: disk=%d live=%d (before %d)", after, d.Bytes(), before)
	}
	for k, val := range want {
		if got, ok := d.Get(k); !ok || string(got.Value) != val {
			t.Fatalf("compaction lost %q", k)
		}
	}
	// Writes after compaction land in the new segments and survive a
	// restart.
	d.Put("post", dver("compact", 9999, 1))
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r := openDiskT(t, dir, DiskOptions{})
	defer r.Close()
	if r.Len() != len(want)+1 {
		t.Fatalf("reopen after compaction: Len=%d want %d", r.Len(), len(want)+1)
	}
	if got, ok := r.Get("post"); !ok || string(got.Value) != "compact" {
		t.Fatal("post-compaction write lost across restart")
	}
}

// TestDiskApplyBatchSteadyStateAllocs pins the disk backend to the same
// hot-path contract as Mem: at most one allocation per update once maps
// and scratch buffers are warm.
func TestDiskApplyBatchSteadyStateAllocs(t *testing.T) {
	d := openDiskT(t, t.TempDir(), DiskOptions{})
	defer d.Close()
	const n = 64
	entries := make([]BatchEntry, n)
	arena := make([]byte, n)
	for i := range entries {
		entries[i] = BatchEntry{
			Key: types.Key(fmt.Sprintf("key%d", i)),
			Ver: types.Version{Value: arena[i : i+1], TS: 1},
		}
	}
	d.ApplyBatch(entries) // populate: index growth happens once, here
	var ts hlc.Timestamp = 1
	allocs := testing.AllocsPerRun(100, func() {
		ts++
		for i := range entries {
			entries[i].Ver.TS = ts // every version wins, every slot rewrites
		}
		d.ApplyBatch(entries)
	})
	if perUpdate := allocs / n; perUpdate > 1 {
		t.Fatalf("disk ApplyBatch allocates %.2f/update in steady state, want <= 1", perUpdate)
	}
	if allocs != 0 {
		t.Logf("disk ApplyBatch steady state: %.2f allocs/run (%.3f/update)", allocs, allocs/n)
	}
}

// TestDiskBudgetAccounting exercises the bigger-than-memory invariant at
// test scale: the live dataset outgrows a memory budget while the
// resident index stays inside it.
func TestDiskBudgetAccounting(t *testing.T) {
	const budget = 64 << 10
	d := openDiskT(t, t.TempDir(), DiskOptions{})
	defer d.Close()
	val := make([]byte, 1024)
	for i := 0; i < 512; i++ {
		d.Put(types.Key(fmt.Sprintf("key%04d", i)), types.Version{Value: val, TS: hlc.Timestamp(i + 1)})
	}
	if d.Bytes() <= budget {
		t.Fatalf("dataset %d did not outgrow budget %d", d.Bytes(), budget)
	}
	if d.ResidentBytes() >= budget {
		t.Fatalf("resident index %d outgrew budget %d", d.ResidentBytes(), budget)
	}
}
