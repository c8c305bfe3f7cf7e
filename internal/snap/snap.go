// Package snap is the bit-identical checkpoint/restore substrate: a
// versioned, deterministic little-endian binary format (Writer/Reader
// with sticky errors and section tags), the Snapshotter interface every
// stateful subsystem implements, and a draw-counting rand.Source64 that
// makes math/rand consumers resumable by replay.
//
// Format discipline (DESIGN.md §15): every value is written in a fixed,
// canonical order — maps are iterated in sorted key order by the caller,
// floats are written as their IEEE-754 bit patterns, and slices are
// length-prefixed. Numeric slices are then coded as runs of zero and
// literal words (see putWords): the controller's Q-tables, most of a
// checkpoint, are mostly never-visited zeros. Two snapshots of identical
// simulator states are therefore byte-identical, which is what lets
// tests compare snapshots directly instead of walking live state.
//
// Section tags ("NETW", "STAT", ...) are 4-byte markers written between
// subsystems. They carry no data; a reader that drifts out of sync with
// the writer (a version skew, a struct field added on one side only)
// fails fast at the next tag with both names in the error instead of
// silently misinterpreting payload bytes.
package snap

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"unsafe"
)

// Magic identifies an rlnoc snapshot stream ("RLNS" little-endian).
const Magic uint32 = 0x534E4C52

// Version is the current snapshot format version. Restore refuses any
// other version: the format captures unexported simulator state, so
// cross-version compatibility is explicitly out of scope — a snapshot is
// resumable by the binary (or a behavior-identical build) that wrote it.
const Version uint32 = 2

// Snapshotter is implemented by every stateful subsystem. SnapState
// serializes the subsystem's mutable state; SnapRestore overwrites the
// state of a freshly constructed, structurally identical instance so the
// next Step continues bit-identically to the run that was snapshotted.
type Snapshotter interface {
	SnapState(w *Writer) error
	SnapRestore(r *Reader) error
}

// maxSliceLen bounds length prefixes on read so a corrupt or truncated
// snapshot fails with an error instead of a huge allocation.
const maxSliceLen = 1 << 30

// Writer serializes primitives little-endian with a sticky error: after
// the first failure every call is a no-op and Err/Flush report it, so
// subsystem SnapState code writes straight-line without per-call checks.
type Writer struct {
	w   *bufio.Writer
	buf [8]byte
	err error
}

// NewWriter wraps w (buffered internally; call Flush when done).
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 1<<16)}
}

// Header writes the magic and version words that start every snapshot.
func (w *Writer) Header() {
	w.U32(Magic)
	w.U32(Version)
}

// Err returns the first error encountered, if any.
func (w *Writer) Err() error { return w.err }

// Flush drains the internal buffer and returns the sticky error.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.err = w.w.Flush()
	return w.err
}

func (w *Writer) write(p []byte) {
	if w.err != nil {
		return
	}
	_, w.err = w.w.Write(p)
}

// Section writes a 4-byte subsystem tag. Tags must be exactly 4 bytes.
func (w *Writer) Section(tag string) {
	if len(tag) != 4 {
		w.fail(fmt.Errorf("snap: section tag %q is not 4 bytes", tag))
		return
	}
	w.write([]byte(tag))
}

func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// Fail records an error from a caller's own validation.
func (w *Writer) Fail(err error) { w.fail(err) }

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.buf[0] = v; w.write(w.buf[:1]) }

// Bool writes a bool as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U16 writes a little-endian uint16.
func (w *Writer) U16(v uint16) {
	binary.LittleEndian.PutUint16(w.buf[:2], v)
	w.write(w.buf[:2])
}

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.write(w.buf[:8])
}

// I32 writes a little-endian int32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 writes a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as 64 bits.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes a float64 as its IEEE-754 bit pattern (exact, canonical).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Len writes a slice/map length prefix.
func (w *Writer) Len(n int) {
	if n < 0 || n > maxSliceLen {
		w.fail(fmt.Errorf("snap: length %d out of range", n))
		return
	}
	w.U32(uint32(n))
}

// Bytes writes a length-prefixed byte slice.
func (w *Writer) Bytes(p []byte) {
	w.Len(len(p))
	w.write(p)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Len(len(s))
	w.write([]byte(s))
}

// I64s writes a length-prefixed []int64 as word runs.
func (w *Writer) I64s(v []int64) { putWords(w, v, 8) }

// F64s writes a length-prefixed []float64 as runs of IEEE-754 bit
// patterns: -0.0 and NaN payloads are literals and round-trip exactly.
func (w *Writer) F64s(v []float64) { putWords(w, float64Bits(v), 8) }

// U64s writes a length-prefixed []uint64 as word runs.
func (w *Writer) U64s(v []uint64) { putWords(w, v, 8) }

// U32s writes a length-prefixed []uint32 as runs of 4-byte words.
func (w *Writer) U32s(v []uint32) { putWords(w, v, 4) }

// Ints writes a length-prefixed []int as runs of 64-bit words.
func (w *Writer) Ints(v []int) { putWords(w, v, 8) }

// word is an element type of a run-coded slice: an integer whose
// conversion to and from uint64 keeps its bit pattern in the low size
// bytes. Float slices are coded through float64Bits.
type word interface {
	~int64 | ~uint64 | ~int | ~uint32
}

// float64Bits views v as the []uint64 of its IEEE-754 bit patterns,
// sharing v's memory: math.Float64bits for a whole slice. The two types
// have the same size and alignment and hold no pointers.
func float64Bits(v []float64) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(v))), len(v))
}

// putWords writes v's length prefix and then v as a sequence of runs,
// each a U32 count of all-zero words, a U32 count of literal words, and
// the literals as size-byte little-endian words. Only a zero run of two
// or more words is split out; a lone zero stays a literal. The rule
// makes the encoding canonical (equal slices give equal bytes) and
// bounds growth: every run header after the first is paid for by at
// least two skipped words, so no slice grows by more than one 8-byte
// header over its raw size.
func putWords[T word](w *Writer, v []T, size int) {
	w.Len(len(v))
	for len(v) > 0 && w.err == nil {
		zeros := 0
		for zeros < len(v) && v[zeros] == 0 {
			zeros++
		}
		if zeros == 1 {
			zeros = 0
		}
		end := zeros
		for end < len(v) && (v[end] != 0 || end+1 == len(v) || v[end+1] != 0) {
			end++
		}
		w.U32(uint32(zeros))
		w.U32(uint32(end - zeros))
		putLiterals(w, v[zeros:end], size)
		v = v[end:]
	}
}

// putLiterals encodes v straight into the bufio buffer, flushing each
// time it fills, so a literal run costs no per-word Write call.
func putLiterals[T word](w *Writer, v []T, size int) {
	for len(v) > 0 && w.err == nil {
		buf := w.w.AvailableBuffer()
		k := min(len(v), cap(buf)/size)
		if k == 0 {
			w.err = w.w.Flush()
			continue
		}
		if size == 8 {
			for _, x := range v[:k] {
				buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
			}
		} else {
			for _, x := range v[:k] {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
			}
		}
		w.write(buf)
		v = v[k:]
	}
}

// Bools writes a length-prefixed []bool.
func (w *Writer) Bools(v []bool) {
	w.Len(len(v))
	for _, x := range v {
		w.Bool(x)
	}
}

// Reader deserializes a Writer stream with the same sticky-error
// discipline: after the first failure every call returns the zero value.
type Reader struct {
	r   *bufio.Reader
	buf [8]byte
	err error
}

// NewReader wraps r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 1<<16)}
}

// Header reads and verifies the magic and version words.
func (r *Reader) Header() error {
	if m := r.U32(); r.err == nil && m != Magic {
		r.fail(fmt.Errorf("snap: bad magic %#x (not an rlnoc snapshot)", m))
	}
	if v := r.U32(); r.err == nil && v != Version {
		r.fail(fmt.Errorf("snap: snapshot version %d, this build reads %d", v, Version))
	}
	return r.err
}

// Err returns the first error encountered, if any.
func (r *Reader) Err() error { return r.err }

// Fail records an error from a caller's own validation (config
// mismatches and the like), using the same sticky-error discipline.
func (r *Reader) Fail(err error) { r.fail(err) }

// fail records the first error, tagging it as a CorruptError: every
// failure a Reader can produce — truncation, bad magic, version skew,
// section drift, out-of-range lengths, caller-side structural
// mismatches — means the stream cannot be trusted, and recovery code
// keys "fall back to the previous checkpoint" off that one type.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = Corrupt(err)
	}
}

func (r *Reader) read(p []byte) bool {
	if r.err != nil {
		return false
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		r.fail(unexpectedEOF(err))
		return false
	}
	return true
}

// Section reads a 4-byte tag and verifies it matches.
func (r *Reader) Section(tag string) {
	var got [4]byte
	if !r.read(got[:]) {
		return
	}
	if string(got[:]) != tag {
		r.fail(fmt.Errorf("snap: section %q, want %q (stream out of sync)", got[:], tag))
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if !r.read(r.buf[:1]) {
		return 0
	}
	return r.buf[0]
}

// Bool reads a bool.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U16 reads a little-endian uint16.
func (r *Reader) U16() uint16 {
	if !r.read(r.buf[:2]) {
		return 0
	}
	return binary.LittleEndian.Uint16(r.buf[:2])
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if !r.read(r.buf[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:4])
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	if !r.read(r.buf[:8]) {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:8])
}

// I32 reads a little-endian int32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int written by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Len reads a length prefix, rejecting corrupt values.
func (r *Reader) Len() int {
	n := r.U32()
	if r.err == nil && n > maxSliceLen {
		r.fail(fmt.Errorf("snap: length %d out of range", n))
		return 0
	}
	return int(n)
}

// LenCheck reads a length prefix that must equal want — used for slices
// whose length is structural (per-router arrays, Q-tables) so a snapshot
// taken under a different configuration fails loudly.
func (r *Reader) LenCheck(want int) int {
	n := r.Len()
	if r.err == nil && n != want {
		r.fail(fmt.Errorf("snap: length %d, want %d (config mismatch?)", n, want))
		return 0
	}
	return n
}

// Bytes reads a length-prefixed byte slice.
func (r *Reader) Bytes() []byte {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	p := make([]byte, n)
	if !r.read(p) {
		return nil
	}
	return p
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes()) }

// I64sInto reads a []int64 written by I64s into dst (length must match).
func (r *Reader) I64sInto(dst []int64) {
	r.LenCheck(len(dst))
	getWords(r, dst, 8)
}

// F64sInto reads a []float64 written by F64s into dst (length must match).
func (r *Reader) F64sInto(dst []float64) {
	r.LenCheck(len(dst))
	getWords(r, float64Bits(dst), 8)
}

// U64sInto reads a []uint64 written by U64s into dst (length must match).
func (r *Reader) U64sInto(dst []uint64) {
	r.LenCheck(len(dst))
	getWords(r, dst, 8)
}

// U32sInto reads a []uint32 written by U32s into dst (length must match).
func (r *Reader) U32sInto(dst []uint32) {
	r.LenCheck(len(dst))
	getWords(r, dst, 4)
}

// IntsInto reads a []int written by Ints into dst (length must match).
func (r *Reader) IntsInto(dst []int) {
	r.LenCheck(len(dst))
	getWords(r, dst, 8)
}

// BoolsInto reads a []bool written by Bools into dst (length must match).
func (r *Reader) BoolsInto(dst []bool) {
	r.LenCheck(len(dst))
	for i := range dst {
		dst[i] = r.Bool()
	}
}

// Ints reads a []int with a caller-chosen length (variable-size queues).
func (r *Reader) Ints() []int {
	v := makeLen[int](r)
	getWords(r, v, 8)
	return v
}

// F64s reads a []float64 with a variable length.
func (r *Reader) F64s() []float64 {
	v := makeLen[float64](r)
	getWords(r, float64Bits(v), 8)
	return v
}

// U64s reads a []uint64 with a variable length.
func (r *Reader) U64s() []uint64 {
	v := makeLen[uint64](r)
	getWords(r, v, 8)
	return v
}

// makeLen reads a length prefix and allocates a slice that long (nil
// when empty or on error).
func makeLen[T any](r *Reader) []T {
	n := r.Len()
	if r.err != nil || n == 0 {
		return nil
	}
	return make([]T, n)
}

// getWords fills dst from the runs putWords wrote after the length
// prefix. Zero runs are cleared in place and literal runs decoded
// straight out of the bufio buffer (Peek/Discard), so a read needs no
// scratch space. A run that covers no words or more words than are
// left is corrupt, as is a stream that ends inside a run.
func getWords[T word](r *Reader, dst []T, size int) {
	for len(dst) > 0 && r.err == nil {
		if !r.read(r.buf[:8]) {
			return
		}
		zeros := uint64(binary.LittleEndian.Uint32(r.buf[:4]))
		lits := uint64(binary.LittleEndian.Uint32(r.buf[4:]))
		if zeros+lits == 0 || zeros+lits > uint64(len(dst)) {
			r.fail(fmt.Errorf("snap: run of %d zero + %d literal words, %d left", zeros, lits, len(dst)))
			return
		}
		clear(dst[:zeros])
		lit := dst[zeros : zeros+lits]
		dst = dst[zeros+lits:]
		for len(lit) > 0 {
			k := min(len(lit), r.r.Size()/size)
			p, err := r.r.Peek(k * size)
			if err != nil {
				r.fail(unexpectedEOF(err))
				return
			}
			if size == 8 {
				for i := range lit[:k] {
					lit[i] = T(binary.LittleEndian.Uint64(p[8*i:]))
				}
			} else {
				for i := range lit[:k] {
					lit[i] = T(binary.LittleEndian.Uint32(p[4*i:]))
				}
			}
			_, _ = r.r.Discard(k * size) // cannot fail: Peek buffered these bytes
			lit = lit[k:]
		}
	}
}

// unexpectedEOF reports an EOF as the truncation it is: every read is
// of bytes the format says must follow.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// CountingSource is a rand.Source64 that counts draws. The simulator's
// three math/rand consumers (NI payload words, RL agent exploration, the
// DT training sampler) are seeded deterministically but consume an
// unpredictable number of draws; wrapping their sources lets a snapshot
// record the draw count and a restore replay the source to the same
// position, reproducing the remaining sequence bit-for-bit.
//
// Counting happens at the Source level, below math/rand's rejection
// loops (Float64's 1.0 retry, Int31n's modulo-bias retry), so the count
// is exact no matter which Rand methods consumed the draws.
type CountingSource struct {
	src   rand.Source64
	seed  int64
	draws uint64
}

// NewCountingSource returns a counting source over rand.NewSource(seed).
// The draw sequence is identical to the unwrapped source's.
func NewCountingSource(seed int64) *CountingSource {
	return &CountingSource{src: rand.NewSource(seed).(rand.Source64), seed: seed}
}

// Int63 draws like the underlying source, counting the draw.
func (s *CountingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

// Uint64 draws like the underlying source, counting the draw.
func (s *CountingSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

// Seed reseeds the underlying source and resets the draw count.
func (s *CountingSource) Seed(seed int64) {
	s.seed = seed
	s.draws = 0
	s.src.Seed(seed)
}

// Draws returns the number of values drawn since the last (re)seed.
func (s *CountingSource) Draws() uint64 { return s.draws }

// Restore reseeds with the original seed and fast-forwards the source by
// draws values, leaving it exactly where a run that drew that many
// values would be. Each state advance is one xorshift-class step, so
// replay costs nanoseconds per draw.
func (s *CountingSource) Restore(draws uint64) {
	s.src.Seed(s.seed)
	for i := uint64(0); i < draws; i++ {
		s.src.Uint64()
	}
	s.draws = draws
}

// Snap writes the draw count.
func (s *CountingSource) Snap(w *Writer) { w.U64(s.draws) }

// Unsnap reads a draw count and restores the source to that position.
func (s *CountingSource) Unsnap(r *Reader) {
	n := r.U64()
	if r.Err() != nil {
		return
	}
	s.Restore(n)
}
