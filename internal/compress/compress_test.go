package compress

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"eunomia/internal/racedetect"
)

// corpus spans the shapes the transport ships: empty, tiny, highly
// repetitive (batched metadata), structured text, incompressible noise,
// and inputs crossing the 64 KiB snappy block boundary.
func corpus() map[string][]byte {
	rng := rand.New(rand.NewSource(7))
	noise := make([]byte, 8192)
	rng.Read(noise)
	big := make([]byte, 200_000)
	for i := range big {
		big[i] = byte(i / 512) // long runs crossing block boundaries
	}
	bigNoise := make([]byte, 150_000)
	rng.Read(bigNoise)
	var batch strings.Builder
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&batch, "partition=%d seq=%d ts=1700000%d key=user-%d;", i%8, i, i, i%100)
	}
	return map[string][]byte{
		"empty":      {},
		"one":        {42},
		"tiny":       []byte("hello"),
		"runs":       bytes.Repeat([]byte("abcd"), 4096),
		"batch":      []byte(batch.String()),
		"noise":      noise,
		"bigRuns":    big,
		"bigNoise":   bigNoise,
		"nearBlock":  bytes.Repeat([]byte{9}, snapBlockSize-1),
		"exactBlock": bytes.Repeat([]byte{9}, snapBlockSize),
		"overBlock":  bytes.Repeat([]byte("xyz"), snapBlockSize/2),
	}
}

func TestRoundTrip(t *testing.T) {
	for _, scheme := range []Scheme{Snappy, Zstd} {
		for name, src := range corpus() {
			t.Run(fmt.Sprintf("%s/%s", scheme, name), func(t *testing.T) {
				comp := Compress(scheme, nil, src)
				got, err := Decompress(scheme, nil, comp)
				if err != nil {
					t.Fatalf("decompress: %v", err)
				}
				if !bytes.Equal(got, src) {
					t.Fatalf("round trip mismatch: got %d bytes, want %d", len(got), len(src))
				}
			})
		}
	}
}

// TestRoundTripAppends verifies the append contract: both directions
// extend non-empty destination slices without clobbering the prefix.
func TestRoundTripAppends(t *testing.T) {
	src := bytes.Repeat([]byte("payload"), 1000)
	for _, scheme := range []Scheme{Snappy, Zstd} {
		prefix := []byte("prefix")
		comp := Compress(scheme, prefix, src)
		if !bytes.HasPrefix(comp, prefix) {
			t.Fatalf("%v: compress clobbered dst prefix", scheme)
		}
		dPrefix := []byte("other")
		got, err := Decompress(scheme, dPrefix, comp[len(prefix):])
		if err != nil {
			t.Fatalf("%v: %v", scheme, err)
		}
		if !bytes.HasPrefix(got, dPrefix) || !bytes.Equal(got[len(dPrefix):], src) {
			t.Fatalf("%v: decompress append mismatch", scheme)
		}
	}
}

// TestCompressesBatchedMetadata pins the property the transport feature
// exists for: self-similar batched frames shrink substantially.
func TestCompressesBatchedMetadata(t *testing.T) {
	src := corpus()["batch"]
	for _, scheme := range []Scheme{Snappy, Zstd} {
		comp := Compress(scheme, nil, src)
		if ratio := float64(len(src)) / float64(len(comp)); ratio < 2 {
			t.Errorf("%v: batched metadata ratio %.2f, want >= 2 (in=%d out=%d)",
				scheme, ratio, len(src), len(comp))
		}
	}
}

func TestDecompressRejectsCorruptInput(t *testing.T) {
	valid := map[Scheme][]byte{
		Snappy: Compress(Snappy, nil, bytes.Repeat([]byte("abcdefgh"), 512)),
		Zstd:   Compress(Zstd, nil, bytes.Repeat([]byte("abcdefgh"), 512)),
	}
	for scheme, comp := range valid {
		cases := map[string][]byte{
			"empty":         {},
			"truncatedHalf": comp[:len(comp)/2],
			"truncatedTail": comp[:len(comp)-1],
			"hugePreamble":  {0xff, 0xff, 0xff, 0xff, 0xff, 0x0f},
			"badPreamble":   {0x80},
		}
		// Flip bytes through the body; every corruption must error or
		// round-trip to something — never panic or over-read.
		for i := 0; i < len(comp); i += 7 {
			mut := append([]byte(nil), comp...)
			mut[i] ^= 0x5b
			cases[fmt.Sprintf("flip%d", i)] = mut
		}
		for name, in := range cases {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("%v/%s: panic: %v", scheme, name, r)
					}
				}()
				_, _ = Decompress(scheme, nil, in)
			}()
		}
		// The specific failures that must be detected, not absorbed:
		for _, name := range []string{"empty", "truncatedHalf", "hugePreamble"} {
			if _, err := Decompress(scheme, nil, cases[name]); err == nil {
				t.Errorf("%v/%s: want error, got nil", scheme, name)
			}
		}
	}
}

// TestDeclaredLengthMismatch covers dishonest preambles: a stream whose
// declared decoded length disagrees with its content must error.
func TestDeclaredLengthMismatch(t *testing.T) {
	for _, scheme := range []Scheme{Snappy, Zstd} {
		comp := Compress(scheme, nil, []byte("0123456789abcdef0123456789abcdef"))
		// Shrink the declared length (single-byte uvarint on this input).
		short := append([]byte(nil), comp...)
		short[0] = 8
		if _, err := Decompress(scheme, nil, short); err == nil {
			t.Errorf("%v: shrunk declared length accepted", scheme)
		}
		long := append([]byte(nil), comp...)
		long[0] = 127
		if _, err := Decompress(scheme, nil, long); err == nil {
			t.Errorf("%v: inflated declared length accepted", scheme)
		}
	}
}

// TestSteadyStateAllocs pins the pooled hot path: compressing and
// decompressing into reused buffers must not allocate once warm.
func TestSteadyStateAllocs(t *testing.T) {
	src := bytes.Repeat([]byte("steady-state payload over the wire;"), 400)
	for _, scheme := range []Scheme{Snappy, Zstd} {
		t.Run(scheme.String(), func(t *testing.T) {
			if scheme == Zstd && racedetect.Enabled {
				t.Skip("the DEFLATE coders come from a sync.Pool, which the race runtime drains on purpose; the bound is checked without -race")
			}
			comp := Compress(scheme, nil, src)
			dec, err := Decompress(scheme, nil, comp)
			if err != nil {
				t.Fatal(err)
			}
			cBuf := make([]byte, 0, cap(comp)*2)
			dBuf := make([]byte, 0, cap(dec)*2)
			allocs := testing.AllocsPerRun(50, func() {
				cBuf = Compress(scheme, cBuf[:0], src)
				var err error
				dBuf, err = Decompress(scheme, dBuf[:0], cBuf)
				if err != nil {
					t.Fatal(err)
				}
			})
			// One alloc of slack for pool churn.
			if allocs > 1 {
				t.Errorf("%.1f allocs per warm round trip, want <= 1", allocs)
			}
		})
	}
}

func FuzzSnappyDecompress(f *testing.F) {
	for _, src := range corpus() {
		if len(src) < 100_000 {
			f.Add(Compress(Snappy, nil, src))
		}
	}
	f.Add([]byte{0x04, 0x0c, 'a', 'b', 'c', 'd'})
	f.Add([]byte{0x08, 0x0c, 'a', 'b', 'c', 'd', 0x01, 0x04})
	f.Fuzz(func(t *testing.T, data []byte) {
		out, err := Decompress(Snappy, nil, data)
		if err == nil {
			// Anything accepted must re-compress and round-trip.
			back, err2 := Decompress(Snappy, nil, Compress(Snappy, nil, out))
			if err2 != nil || !bytes.Equal(back, out) {
				t.Fatalf("accepted input does not round trip (err=%v)", err2)
			}
		}
	})
}

func FuzzFlateDecompress(f *testing.F) {
	for _, src := range corpus() {
		if len(src) < 100_000 {
			f.Add(Compress(Zstd, nil, src))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = Decompress(Zstd, nil, data)
	})
}

func FuzzSnappyRoundTrip(f *testing.F) {
	f.Add([]byte("abab"), 3)
	f.Add([]byte{}, 1)
	f.Fuzz(func(t *testing.T, data []byte, repeat int) {
		if repeat < 1 || repeat > 64 || len(data) > 1<<16 {
			return
		}
		src := bytes.Repeat(data, repeat)
		got, err := Decompress(Snappy, nil, Compress(Snappy, nil, src))
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if !bytes.Equal(got, src) {
			t.Fatalf("round trip mismatch: %d in, %d out", len(src), len(got))
		}
	})
}
