// Package payload splits the simulator's data plane from its timing
// plane. A Payload is one rank-local tensor (or an aliasing view of one)
// moving through device buffers, fabric chunks and collective stages. Two
// implementations share the interface:
//
//   - dense: real float32 data. Collective results are numerically
//     checkable; aggregation scratch buffers come from a size-bucketed
//     sync.Pool so chunk-sized buffers recycle instead of re-allocating
//     per transfer.
//   - phantom: metadata only — length, provenance (which ranks'
//     contributions reached this range) and a positional checksum derived
//     from the provenance. Reduce/forward/alltoall semantics stay
//     checkable without carrying element data.
//
// Both modes report identical Len/SizeBytes for identical operations, and
// the simulation charges time from byte counts alone, so a phantom run of
// a collective produces a bit-identical virtual timeline to the dense run
// of the same seed (DESIGN.md "Data plane vs timing plane").
package payload

import (
	"fmt"
	"hash/fnv"
	"math"
)

// Mode selects the fidelity of the data plane. The zero value is Dense so
// existing float32-driven call sites keep their behaviour.
type Mode uint8

const (
	// Dense payloads carry real float32 elements.
	Dense Mode = iota
	// Phantom payloads carry only length + provenance metadata.
	Phantom
)

func (m Mode) String() string {
	switch m {
	case Dense:
		return "dense"
	case Phantom:
		return "phantom"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// Payload is a tensor or tensor view in one of the two modes. Views alias
// their parent: writes through a view are visible to every other view of
// the same tensor, exactly like sub-slicing a []float32.
//
// CopyFrom and AddFrom require equal lengths and equal modes; mixing
// modes in one collective is a programming error and panics.
type Payload interface {
	// Mode reports the fidelity of this payload.
	Mode() Mode
	// Len is the element count.
	Len() int
	// SizeBytes is the wire size (Len()*4); both modes report it
	// identically, which is what keeps timelines mode-independent.
	SizeBytes() int64
	// View returns an aliasing sub-range [start, end) view.
	View(start, end int) Payload
	// CopyFrom overwrites this payload with src.
	CopyFrom(src Payload)
	// AddFrom accumulates every src into this payload (reduce-into):
	// dense adds element-wise; phantom unions provenance.
	AddFrom(srcs ...Payload)
	// Checksum summarises the content: dense hashes the element bits,
	// phantom derives it from provenance and absolute element positions.
	// Checksums are comparable within a mode, not across modes.
	Checksum() uint64
	// Provenance returns the sorted set of ranks whose contributions
	// reached every element of this range (phantom), or nil for dense.
	Provenance() []int
	// Float32 returns the backing data (dense), or nil for phantom.
	Float32() []float32
}

// dense is the real-data implementation: a view over a float32 slice.
type dense struct {
	data []float32
}

// WrapDense wraps an existing float32 tensor as a dense Payload. The
// payload aliases the slice; writes are visible to the caller.
func WrapDense(data []float32) Payload { return dense{data: data} }

func (d dense) Mode() Mode       { return Dense }
func (d dense) Len() int         { return len(d.data) }
func (d dense) SizeBytes() int64 { return int64(len(d.data)) * 4 }

func (d dense) View(start, end int) Payload {
	return dense{data: d.data[start:end]}
}

func (d dense) CopyFrom(src Payload) {
	s := mustDense("CopyFrom", src, len(d.data))
	copy(d.data, s.data)
}

func (d dense) AddFrom(srcs ...Payload) {
	for _, src := range srcs {
		s := mustDense("AddFrom", src, len(d.data))
		for i, v := range s.data {
			d.data[i] += v
		}
	}
}

func (d dense) Checksum() uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range d.data {
		bits := math.Float32bits(v)
		b[0] = byte(bits)
		b[1] = byte(bits >> 8)
		b[2] = byte(bits >> 16)
		b[3] = byte(bits >> 24)
		h.Write(b[:])
	}
	return h.Sum64()
}

func (d dense) Provenance() []int  { return nil }
func (d dense) Float32() []float32 { return d.data }

func mustDense(op string, p Payload, wantLen int) dense {
	s, ok := p.(dense)
	if !ok {
		panic(fmt.Sprintf("payload: %s mode mismatch (dense vs %v)", op, p.Mode()))
	}
	if len(s.data) != wantLen {
		panic(fmt.Sprintf("payload: %s length mismatch %d vs %d", op, wantLen, len(s.data)))
	}
	return s
}
