// Package collective implements AdapCC's Communicator (paper Sec. V): it
// executes synthesised strategies on the simulated fabric, moving real
// float32 tensors chunk-by-chunk with per-sub-collective transmission
// contexts, one device stream per context (multi-stream parallelism),
// pipelined chunk transmission, aggregation kernels where flows terminate,
// relay behaviour driven by the <isActive,hasRecv,hasKernel,hasSend>
// tuples, and reduce‖broadcast stage pipelining for AllReduce.
package collective

import (
	"fmt"

	"adapcc/internal/strategy"
)

// elemsOf converts a byte count to float32 elements (rounding down).
func elemsOf(bytes int64) int { return int(bytes / 4) }

// span is a half-open element range [Start, End).
type span struct {
	Start, End int
}

func (s span) Len() int { return s.End - s.Start }

// partitionSpans returns each sub-collective's element range within the
// tensor. Partition byte sizes are float32-aligned by the synthesizer
// except possibly the last, whose stray bytes are dropped (tensors are
// whole float32s).
func partitionSpans(s *strategy.Strategy) ([]span, error) {
	total := elemsOf(s.TotalBytes)
	spans := make([]span, len(s.SubCollectives))
	off := 0
	for i := range s.SubCollectives {
		n := elemsOf(s.SubCollectives[i].Bytes)
		if i == len(s.SubCollectives)-1 {
			n = total - off
		}
		if n < 0 || off+n > total {
			return nil, fmt.Errorf("collective: partition %d overflows tensor (%d+%d of %d elems)", i, off, n, total)
		}
		spans[i] = span{Start: off, End: off + n}
		off += n
	}
	if off != total {
		return nil, fmt.Errorf("collective: partitions cover %d of %d elems", off, total)
	}
	return spans, nil
}

// equalBlock splits a span into `participants` equal blocks of
// floor(len/participants) elements and returns the idx-th. The tail that
// does not divide evenly (fewer than `participants` elements) is not part
// of any block; AlltoAll keeps it local (see alltoallTail).
func equalBlock(p span, participants, idx int) span {
	base := p.Len() / participants
	start := p.Start + idx*base
	return span{Start: start, End: start + base}
}

// alltoallTail is the span suffix not covered by equal blocks.
func alltoallTail(p span, participants int) span {
	base := p.Len() / participants
	return span{Start: p.Start + participants*base, End: p.End}
}

// alltoallShare returns the part of AlltoAll block idx that partition p
// carries. Blocks are equalBlocks of the whole tensor of total elements,
// whatever the partitioning; every partition carries the same relative
// slice [p.Start/participants, p.End/participants) of each block, so
// adjacent partitions' slices tile every block exactly. With a single
// partition the share is the whole block.
func alltoallShare(p span, total, participants, idx int) span {
	b := equalBlock(span{End: total}, participants, idx)
	return span{Start: b.Start + p.Start/participants, End: b.Start + p.End/participants}
}

// chunkSpans slices a span into pipeline chunks of at most chunkElems.
func chunkSpans(s span, chunkElems int) []span {
	if chunkElems <= 0 {
		chunkElems = s.Len()
	}
	if s.Len() == 0 {
		return nil
	}
	var out []span
	for start := s.Start; start < s.End; start += chunkElems {
		end := start + chunkElems
		if end > s.End {
			end = s.End
		}
		out = append(out, span{Start: start, End: end})
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
