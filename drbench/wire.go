package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/domain"
)

// streamRead is one raw batch stream as the load generator saw it.
type streamRead struct {
	bytes   int64
	crc     uint32
	sent    time.Time   // request handed to the transport
	headers time.Time   // response headers received
	batches []time.Time // arrival of each complete batch (first only unless every batch is tracked)
	body    []byte      // kept only when asked
}

// firstBatch is the arrival time of the first complete batch.
func (s *streamRead) firstBatch() (time.Time, bool) {
	if len(s.batches) == 0 {
		return time.Time{}, false
	}
	return s.batches[0], true
}

// batchesURL builds a /batches URL with optional cursor and cap.
func batchesURL(base, job, cursor string, maxBatches int) string {
	q := url.Values{}
	if maxBatches > 0 {
		q.Set("max_batches", fmt.Sprint(maxBatches))
	}
	if cursor != "" {
		q.Set("cursor", cursor)
	}
	u := base + "/v1/jobs/" + url.PathEscape(job) + "/batches"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	return u
}

// fetchStream reads one batch stream's raw body on the given wire,
// hashing every byte (CRC-32C) and timing batch arrivals by splitting
// the byte stream at frame or line boundaries without decoding it.
func fetchStream(ctx context.Context, hc *http.Client, rawURL, wire string, keep, everyBatch bool) (*streamRead, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rawURL, nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Authorization", "Bearer "+benchToken)
	if wire == domain.WireFrame {
		req.Header.Set("Accept", domain.ContentTypeFrame)
	} else {
		req.Header.Set("Accept", domain.ContentTypeNDJSON)
	}
	sr := &streamRead{sent: time.Now()}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sr.headers = time.Now()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("stream status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	if got := resp.Header.Get(domain.HeaderWire); got != wire {
		return nil, fmt.Errorf("asked for wire %s, server answered %q", wire, got)
	}
	h := crc32.New(castagnoli)
	var split frameSplitter
	buf := make([]byte, 256<<10)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			p := buf[:n]
			h.Write(p)
			sr.bytes += int64(n)
			if keep {
				sr.body = append(sr.body, p...)
			}
			if everyBatch || len(sr.batches) == 0 {
				var done int
				if wire == domain.WireFrame {
					done = split.feed(p)
				} else {
					done = bytes.Count(p, []byte{'\n'})
				}
				now := time.Now()
				for i := 0; i < done; i++ {
					sr.batches = append(sr.batches, now)
				}
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return nil, rerr
		}
	}
	sr.crc = h.Sum32()
	return sr, nil
}

// frameSplitter finds frame boundaries in a frame stream fed in
// arbitrary chunks: a uvarint body length, then that many body bytes.
type frameSplitter struct {
	remain int64
	x      uint64
	shift  uint
}

// feed consumes p and returns how many frames it completed.
func (f *frameSplitter) feed(p []byte) int {
	done := 0
	for len(p) > 0 {
		if f.remain > 0 {
			k := int64(len(p))
			if k > f.remain {
				k = f.remain
			}
			f.remain -= k
			p = p[k:]
			if f.remain == 0 {
				done++
			}
			continue
		}
		c := p[0]
		p = p[1:]
		f.x |= uint64(c&0x7f) << f.shift
		f.shift += 7
		if c < 0x80 {
			f.remain = int64(f.x)
			f.x, f.shift = 0, 0
		}
	}
	return done
}
