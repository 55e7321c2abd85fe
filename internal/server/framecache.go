// The serving cache: each shard's records in frame-ready byte form —
// one contiguous payload buffer plus per-record boundary offsets, the
// same bytes a shard sidecar holds — filled once and shared by both
// wires. Any batch_size/cursor combination is served by slicing byte
// ranges out of the buffer: frame batches write them straight to the
// connection under a freshly framed header (domain.FrameEnvelope),
// NDJSON batches decode them back into records at emit time. Both are
// byte-identical to encoding per request because a codec's batch
// payload is the concatenation of its single-record payloads.
package server

import (
	"context"
	"io"
	"time"

	"repro/internal/domain"
	"repro/internal/shard"
)

// encodedShard is one shard's records in frame-ready byte form.
type encodedShard struct {
	payload []byte
	// offsets has len(records)+1 entries; record i occupies
	// payload[offsets[i]:offsets[i+1]].
	offsets []int64
}

// count is the number of records in the shard.
func (e *encodedShard) count() int { return len(e.offsets) - 1 }

// slice returns the payload bytes of the record range [a, b).
func (e *encodedShard) slice(a, b int) []byte {
	return e.payload[e.offsets[a]:e.offsets[b]]
}

// sliceLen is len(slice(a, b)) without materializing the slice header.
func (e *encodedShard) sliceLen(a, b int) int {
	return int(e.offsets[b] - e.offsets[a])
}

// memBytes is the cache accounting for this entry.
func (e *encodedShard) memBytes() int64 {
	return int64(len(e.payload)) + int64(len(e.offsets))*8
}

// writeRange completes frameSource over in-memory payload bytes.
func (e *encodedShard) rangeLen(a, b int) int { return e.sliceLen(a, b) }

func (e *encodedShard) writeRange(w io.Writer, a, b int) error {
	_, err := w.Write(e.slice(a, b))
	return err
}

// frameRange is a contiguous record range [a, b) of one shard's frame
// source, buffered for the next batch emission. A batch that spans a
// shard boundary holds one range per shard.
type frameRange struct {
	src  frameSource
	a, b int
}

// frameShard returns one shard's encoded-frame form through the frame
// cache, filling on first access only. The fill prefers the shard's
// on-store sidecar — one read plus a CRC check, zero codec calls —
// and only decodes+encodes (then backfills the sidecar) when no usable
// sidecar exists. Fills are spanned as frame.fill under the filling
// request's span (with a fallback's shard.load appearing as a sibling
// child of the same request — the load happens inside this interval
// but parents to the request span, which keeps both directly visible
// in the tree).
func (s *Server) frameShard(ctx context.Context, job *Job, dom string, m *shard.Manifest, info shard.Info, open shard.Opener, codec domain.Codec) (*encodedShard, error) {
	key := job.id + "/" + info.Name
	return s.frames.Get(key, func() (*encodedShard, int64, error) {
		fillStart := time.Now()
		if !s.opts.DisableFrameStore {
			if sc, closer, ok := s.openFrameSidecar(job, info, codec); ok {
				payload, perr := sc.Payload()
				closer.Close()
				if perr == nil {
					enc := &encodedShard{payload: payload, offsets: sc.Offsets()}
					s.metrics.frameStoreHits.Inc()
					s.metrics.frameStoreBytes.Add(float64(len(payload)))
					s.recordChildSpan(ctx, "frame.fill", fillStart, time.Now(),
						map[string]string{"shard": info.Name, "source": "sidecar"})
					return enc, enc.memBytes(), nil
				}
				s.metrics.frameStoreErrors.Inc()
				s.logger.Warn("frame sidecar payload corrupt; re-encoding",
					"job", job.id, "shard", info.Name, "error", perr.Error())
			}
			s.metrics.frameStoreMisses.Inc()
		}
		enc, err := s.encodeShard(ctx, job, dom, m, info, open, codec)
		if err != nil {
			return nil, 0, err
		}
		s.recordChildSpan(ctx, "frame.fill", fillStart, time.Now(),
			map[string]string{"shard": info.Name, "source": "encode"})
		return enc, enc.memBytes(), nil
	})
}
