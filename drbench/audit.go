package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"time"

	"repro/internal/ledger"
)

// auditSample is how many stream-open records each run proves.
const auditSample = 8

// verifyAudit proves a seeded sample of the run's stream-open audit
// records: each proof must verify on its own and fold to the root
// /v1/audit/roots published for its batch. Every proof is one checked
// operation.
func (b *bench) verifyAudit(ctx context.Context, d *deployment) error {
	c := d.client(newHTTPClient(1))
	// Jobs finishing just before the window closed may still append
	// eviction records; wait until the ledger stops growing, so the
	// provisional tail root is final.
	roots, err := c.AuditRoots(ctx)
	if err != nil {
		return err
	}
	for i := 0; i < 20; i++ {
		time.Sleep(50 * time.Millisecond)
		again, err := c.AuditRoots(ctx)
		if err != nil {
			return err
		}
		if again.Records == roots.Records {
			break
		}
		roots = again
	}
	if roots.Records == 0 {
		return fmt.Errorf("audit ledger is empty after the run")
	}
	published := map[int]string{}
	for _, r := range roots.Roots {
		published[r.Batch] = r.Root
	}
	rng := rand.New(rand.NewPCG(uint64(subSeed(b.seed, "audit")), 0))
	proved := 0
	for try := 0; try < 16*auditSample && proved < auditSample; try++ {
		seq := 1 + rng.Uint64N(roots.Records)
		p, err := c.AuditProof(ctx, seq)
		if err != nil {
			b.op(fmt.Errorf("audit proof %d: %w", seq, err))
			continue
		}
		if p.Record.Type != ledger.TypeStream {
			continue
		}
		proved++
		if err := p.Verify(); err != nil {
			b.op(err)
			continue
		}
		root := published[p.Batch]
		if root != p.Root {
			// The tail batch's provisional root moves while records
			// arrive; compare once more against roots fetched now.
			if again, err := c.AuditRoots(ctx); err == nil {
				for _, r := range again.Roots {
					if r.Batch == p.Batch {
						root = r.Root
					}
				}
			}
		}
		if root != p.Root {
			b.op(fmt.Errorf("audit record %d folds to %s, published root of batch %d is %q", seq, p.Root, p.Batch, root))
			continue
		}
		b.op(nil)
	}
	if proved == 0 {
		return fmt.Errorf("no stream-open record among the sampled audit records")
	}
	return nil
}
