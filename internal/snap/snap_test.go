package snap

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// TestRoundTripPrimitives writes one of everything and reads it back,
// checking values and that the stream is consumed exactly.
func TestRoundTripPrimitives(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Header()
	w.Section("TEST")
	w.U8(0xAB)
	w.Bool(true)
	w.Bool(false)
	w.U16(0xBEEF)
	w.U32(0xDEADBEEF)
	w.U64(0x0123456789ABCDEF)
	w.I32(-7)
	w.I64(-1 << 40)
	w.Int(-42)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))
	w.F64(0.0)
	w.Bytes([]byte{1, 2, 3})
	w.String("wormhole")
	w.String("")
	w.I64s([]int64{-1, 0, 1})
	w.F64s([]float64{0.5, -0.5})
	w.U64s([]uint64{9, 10})
	w.U32s([]uint32{11, 12})
	w.Ints([]int{-3, 3})
	w.Bools([]bool{true, false, true})
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	r := NewReader(bytes.NewReader(buf.Bytes()))
	if err := r.Header(); err != nil {
		t.Fatalf("header: %v", err)
	}
	r.Section("TEST")
	if got := r.U8(); got != 0xAB {
		t.Errorf("U8 = %#x", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip wrong")
	}
	if got := r.U16(); got != 0xBEEF {
		t.Errorf("U16 = %#x", got)
	}
	if got := r.U32(); got != 0xDEADBEEF {
		t.Errorf("U32 = %#x", got)
	}
	if got := r.U64(); got != 0x0123456789ABCDEF {
		t.Errorf("U64 = %#x", got)
	}
	if got := r.I32(); got != -7 {
		t.Errorf("I32 = %d", got)
	}
	if got := r.I64(); got != -1<<40 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != -42 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 inf = %v", got)
	}
	if got := r.F64(); got != 0 {
		t.Errorf("F64 zero = %v", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Errorf("Bytes = %v", got)
	}
	if got := r.String(); got != "wormhole" {
		t.Errorf("String = %q", got)
	}
	if got := r.String(); got != "" {
		t.Errorf("empty String = %q", got)
	}
	i64s := make([]int64, 3)
	r.I64sInto(i64s)
	if i64s[0] != -1 || i64s[2] != 1 {
		t.Errorf("I64sInto = %v", i64s)
	}
	f64s := make([]float64, 2)
	r.F64sInto(f64s)
	if f64s[0] != 0.5 || f64s[1] != -0.5 {
		t.Errorf("F64sInto = %v", f64s)
	}
	u64s := make([]uint64, 2)
	r.U64sInto(u64s)
	if u64s[0] != 9 || u64s[1] != 10 {
		t.Errorf("U64sInto = %v", u64s)
	}
	u32s := make([]uint32, 2)
	r.U32sInto(u32s)
	if u32s[0] != 11 || u32s[1] != 12 {
		t.Errorf("U32sInto = %v", u32s)
	}
	ints := r.Ints()
	if len(ints) != 2 || ints[0] != -3 || ints[1] != 3 {
		t.Errorf("Ints = %v", ints)
	}
	bools := make([]bool, 3)
	r.BoolsInto(bools)
	if !bools[0] || bools[1] || !bools[2] {
		t.Errorf("BoolsInto = %v", bools)
	}
	if err := r.Err(); err != nil {
		t.Fatalf("reader error: %v", err)
	}
	// The stream must be exactly consumed: one more read should fail.
	r.U8()
	if r.Err() == nil {
		t.Error("read past end succeeded; writer/reader call counts drifted")
	}
}

// TestSectionMismatch checks the out-of-sync detector names both tags.
func TestSectionMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Section("NETW")
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.Section("STAT")
	err := r.Err()
	if err == nil {
		t.Fatal("mismatched section accepted")
	}
	if !strings.Contains(err.Error(), "NETW") || !strings.Contains(err.Error(), "STAT") {
		t.Errorf("error %q names neither tag", err)
	}
}

// TestBadSectionTag rejects tags that are not exactly 4 bytes.
func TestBadSectionTag(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	w.Section("TOOLONG")
	if w.Err() == nil {
		t.Error("7-byte tag accepted")
	}
}

// TestHeaderRejects checks bad magic and version skew fail loudly.
func TestHeaderRejects(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(0x12345678) // wrong magic
	w.U32(Version)
	w.Flush()
	if err := NewReader(bytes.NewReader(buf.Bytes())).Header(); err == nil {
		t.Error("bad magic accepted")
	}

	buf.Reset()
	w = NewWriter(&buf)
	w.U32(Magic)
	w.U32(Version + 1)
	w.Flush()
	if err := NewReader(bytes.NewReader(buf.Bytes())).Header(); err == nil {
		t.Error("future version accepted")
	}

	// An older stream codes its slices differently; reading on would
	// misparse them, so recovery must see a CorruptError at the header.
	buf.Reset()
	w = NewWriter(&buf)
	w.U32(Magic)
	w.U32(Version - 1)
	w.Flush()
	if err := NewReader(bytes.NewReader(buf.Bytes())).Header(); !IsCorrupt(err) {
		t.Errorf("older version: error %v, want a CorruptError", err)
	}
}

// TestLenCheckMismatch checks the structural-length guard fires when a
// snapshot from a differently sized configuration is read back.
func TestLenCheckMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.I64s([]int64{1, 2, 3})
	w.Flush()
	r := NewReader(bytes.NewReader(buf.Bytes()))
	r.I64sInto(make([]int64, 4))
	if r.Err() == nil {
		t.Error("length mismatch accepted")
	}
}

// TestStickyErrors checks both halves go quiet after the first failure.
func TestStickyErrors(t *testing.T) {
	// Reader: truncated stream; every later call returns the zero value
	// and the first error is preserved.
	r := NewReader(bytes.NewReader([]byte{0x01}))
	r.U64()
	first := r.Err()
	if first == nil {
		t.Fatal("truncated U64 read succeeded")
	}
	if got := r.U32(); got != 0 {
		t.Errorf("post-error U32 = %d, want 0", got)
	}
	if r.Err() != first {
		t.Error("first error not sticky")
	}

	// Writer: an injected failure suppresses later writes.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	werr := w.Err()
	if werr != nil {
		t.Fatal(werr)
	}
	w.Fail(errInjected)
	w.U64(7)
	if err := w.Flush(); err != errInjected {
		t.Errorf("Flush = %v, want injected error", err)
	}
	if buf.Len() != 0 {
		t.Errorf("post-error write emitted %d bytes", buf.Len())
	}
}

var errInjected = &injectedError{}

type injectedError struct{}

func (*injectedError) Error() string { return "injected" }

// TestTruncatedSlice checks a corrupt length prefix cannot trigger a
// huge allocation: Len rejects values over the cap.
func TestTruncatedSlice(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.U32(0xFFFFFFFF) // length prefix far over maxSliceLen
	w.Flush()
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if p := r.Bytes(); p != nil || r.Err() == nil {
		t.Error("oversized length prefix accepted")
	}
}

// TestCountingSourceRestore verifies the fast-forward replay: a source
// restored to draw position n continues with exactly the values a
// continuously running source would produce, through both the Int63 and
// Uint64 paths and through math/rand's rejection-looping methods.
func TestCountingSourceRestore(t *testing.T) {
	const seed = 20260808
	ref := rand.New(NewCountingSource(seed))
	cs := NewCountingSource(seed)
	rng := rand.New(cs)

	// Burn a mixed workload so the draw count reflects rejection loops.
	for i := 0; i < 1000; i++ {
		rng.Float64()
		rng.Int31n(7)
		rng.Uint64()
		ref.Float64()
		ref.Int31n(7)
		ref.Uint64()
	}
	draws := cs.Draws()
	if draws < 3000 {
		t.Fatalf("draw count %d below the minimum 3 per iteration", draws)
	}

	// Restore a fresh source to the same position; it must continue in
	// lock-step with the reference that never stopped.
	cs2 := NewCountingSource(seed)
	cs2.Restore(draws)
	rng2 := rand.New(cs2)
	for i := 0; i < 1000; i++ {
		if a, b := ref.Uint64(), rng2.Uint64(); a != b {
			t.Fatalf("draw %d after restore: %d != %d", i, b, a)
		}
	}
	if cs2.Draws() != draws+1000 {
		t.Errorf("post-restore draw count %d, want %d", cs2.Draws(), draws+1000)
	}
}

// TestCountingSourceSnapUnsnap round-trips the draw count through the
// wire format.
func TestCountingSourceSnapUnsnap(t *testing.T) {
	cs := NewCountingSource(7)
	rng := rand.New(cs)
	for i := 0; i < 137; i++ {
		rng.Uint64()
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	cs.Snap(w)
	w.Flush()
	next := rng.Uint64() // first post-snapshot value; restore must reproduce it

	cs2 := NewCountingSource(7)
	r := NewReader(bytes.NewReader(buf.Bytes()))
	cs2.Unsnap(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if cs2.Draws() != 137 {
		t.Fatalf("restored draw count %d, want 137", cs2.Draws())
	}
	if got := rand.New(cs2).Uint64(); got != next {
		t.Errorf("restored source diverged: %d != %d", got, next)
	}
}

// TestCountingSourceSeedResets checks Seed resets the draw counter and
// the sequence.
func TestCountingSourceSeedResets(t *testing.T) {
	cs := NewCountingSource(1)
	a := cs.Uint64()
	cs.Seed(1)
	if cs.Draws() != 0 {
		t.Errorf("draws after reseed = %d", cs.Draws())
	}
	if b := cs.Uint64(); b != a {
		t.Errorf("reseeded sequence diverged: %d != %d", b, a)
	}
}

// TestDeterministicBytes: the same write sequence yields byte-identical
// streams — the property the snapshot-idempotence tests build on.
func TestDeterministicBytes(t *testing.T) {
	emit := func() []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Header()
		w.Section("DEMO")
		w.F64s([]float64{1.5, math.SmallestNonzeroFloat64})
		w.String("x")
		w.Flush()
		return buf.Bytes()
	}
	if !bytes.Equal(emit(), emit()) {
		t.Error("identical write sequences produced different bytes")
	}
}

// TestWordRunLayout pins the canonical run split: only zero runs of two
// or more words leave the literal run, wherever they sit.
func TestWordRunLayout(t *testing.T) {
	for _, tc := range []struct {
		in   []uint64
		want []uint32 // length prefix, then (zeros, literals) per run
	}{
		{nil, []uint32{0}},
		{[]uint64{0}, []uint32{1, 0, 1}},
		{[]uint64{0, 5}, []uint32{2, 0, 2}},
		{[]uint64{5, 0}, []uint32{2, 0, 2}},
		{[]uint64{0, 0}, []uint32{2, 2, 0}},
		{[]uint64{5, 0, 5}, []uint32{3, 0, 3}},
		{[]uint64{5, 0, 0, 7}, []uint32{4, 0, 1, 2, 1}},
		{[]uint64{0, 0, 0, 7, 0, 7, 0, 0}, []uint32{8, 3, 3, 2, 0}},
	} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.U64s(tc.in)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		enc := buf.Bytes()
		got := []uint32{binary.LittleEndian.Uint32(enc)}
		for off := 4; off < len(enc); {
			zeros, lits := binary.LittleEndian.Uint32(enc[off:]), binary.LittleEndian.Uint32(enc[off+4:])
			got = append(got, zeros, lits)
			off += 8 + 8*int(lits)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v: runs %v, want %v", tc.in, got, tc.want)
		}
	}
}

// FuzzWordRuns drives every numeric slice type through the run codec
// with words drawn from the fuzz bytes: zeros (in runs of any length),
// -0.0, NaN payloads and dense values. Each slice must round-trip
// bit-exactly through its fixed- and (where one exists) variable-length
// reader, re-encode to the same bytes, stay within one run header of its
// raw size, and fail as a CorruptError when cut short anywhere or when
// any run header claims more words than are left.
func FuzzWordRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 7})
	f.Add([]byte{3, 7, 11, 15, 19, 23, 27, 31, 35, 39, 43, 47})
	f.Add([]byte{1, 0, 1, 0, 0, 1, 2, 0, 2, 0, 0, 0, 6})
	f.Add([]byte{0, 3, 0, 0, 3, 0, 3, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 128 { // every truncation is a read: keep them cheap
			data = data[:128]
		}
		words := make([]uint64, len(data))
		for i, b := range data {
			switch b % 4 {
			case 0: // zero
			case 1:
				words[i] = 1 << 63 // -0.0
			case 2:
				words[i] = 0x7FF0000000000001 | uint64(b)<<8 // NaN payload
			case 3:
				words[i] = uint64(b) * 0x9E3779B97F4A7C15
			}
		}
		i64s := make([]int64, len(words))
		f64s := make([]float64, len(words))
		u32s := make([]uint32, len(words))
		ints := make([]int, len(words))
		for i, x := range words {
			i64s[i] = int64(x)
			f64s[i] = math.Float64frombits(x)
			u32s[i] = uint32(x) ^ uint32(x>>32)
			ints[i] = int(x)
		}
		checkWordRuns(t, i64s, 8, (*Writer).I64s, (*Reader).I64sInto, nil, func(x int64) uint64 { return uint64(x) })
		checkWordRuns(t, f64s, 8, (*Writer).F64s, (*Reader).F64sInto, (*Reader).F64s, math.Float64bits)
		checkWordRuns(t, words, 8, (*Writer).U64s, (*Reader).U64sInto, (*Reader).U64s, func(x uint64) uint64 { return x })
		checkWordRuns(t, u32s, 4, (*Writer).U32s, (*Reader).U32sInto, nil, func(x uint32) uint64 { return uint64(x) })
		checkWordRuns(t, ints, 8, (*Writer).Ints, (*Reader).IntsInto, (*Reader).Ints, func(x int) uint64 { return uint64(x) })
	})
}

func checkWordRuns[T any](t *testing.T, v []T, size int, put func(*Writer, []T),
	into func(*Reader, []T), get func(*Reader) []T, bits func(T) uint64) {
	t.Helper()
	encode := func(v []T) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		put(w, v)
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	enc := encode(v)
	if max := len(v)*size + 4 + 8; len(enc) > max {
		t.Fatalf("%d words encode to %d bytes, over the %d-byte bound", len(v), len(enc), max)
	}
	same := func(got []T, how string) {
		t.Helper()
		if len(got) != len(v) {
			t.Fatalf("%s: %d words, want %d", how, len(got), len(v))
		}
		for i := range v {
			if bits(got[i]) != bits(v[i]) {
				t.Fatalf("%s: word %d = %#x, want %#x", how, i, bits(got[i]), bits(v[i]))
			}
		}
	}
	r := NewReader(bytes.NewReader(enc))
	got := make([]T, len(v))
	into(r, got)
	if err := r.Err(); err != nil {
		t.Fatalf("intact encoding rejected: %v", err)
	}
	if r.U8(); r.Err() == nil {
		t.Fatal("bytes left over after the slice")
	}
	same(got, "fixed-length read")
	if get != nil {
		r := NewReader(bytes.NewReader(enc))
		got := get(r)
		if err := r.Err(); err != nil {
			t.Fatalf("variable-length read: %v", err)
		}
		same(got, "variable-length read")
	}
	if again := encode(append([]T(nil), got...)); !bytes.Equal(again, enc) {
		t.Fatalf("equal inputs encoded differently:\n%x\n%x", enc, again)
	}

	for cut := 0; cut < len(enc); cut++ {
		r := NewReader(bytes.NewReader(enc[:cut]))
		into(r, make([]T, len(v)))
		if !IsCorrupt(r.Err()) {
			t.Fatalf("truncation at %d/%d: error %v, want a CorruptError", cut, len(enc), r.Err())
		}
	}

	// Walk the run headers and make each one overrun the words left, by
	// its zero count and by its literal count in turn, or cover none.
	left, off := uint32(len(v)), 4
	for left > 0 {
		zeros := binary.LittleEndian.Uint32(enc[off:])
		lits := binary.LittleEndian.Uint32(enc[off+4:])
		over := left - zeros - lits + 1
		for _, hdr := range [][2]uint32{{zeros + over, lits}, {zeros, lits + over}, {0, 0}} {
			bad := append([]byte(nil), enc...)
			binary.LittleEndian.PutUint32(bad[off:], hdr[0])
			binary.LittleEndian.PutUint32(bad[off+4:], hdr[1])
			r := NewReader(bytes.NewReader(bad))
			into(r, make([]T, len(v)))
			if !IsCorrupt(r.Err()) {
				t.Fatalf("run at byte %d rewritten to %d+%d words of %d left: error %v, want a CorruptError",
					off, hdr[0], hdr[1], left, r.Err())
			}
		}
		left -= zeros + lits
		off += 8 + int(lits)*size
	}
	if off != len(enc) {
		t.Fatalf("runs end at byte %d of %d", off, len(enc))
	}
}
