package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"arcs/internal/store"
)

// Ring-aware bootstrap and drain. A joining (or wiped replacement)
// node owns key ranges it holds no data for; Bootstrap pulls exactly
// those ranges — shard by shard, from every current member — each as
// one columnar KindSnapshot frame. Each response is one CRC-framed
// unit: a connection cut mid-shard fails the checksum, nothing merges,
// and the retry re-pulls the whole shard, so a crashed transfer can
// never leave a torn entry behind. The symmetric path is Drain: a
// member departing via /v1/leave pushes every entry it holds to the
// owners under the post-departure ring before it goes, so the fleet
// never dips below its replication factor on a clean leave.

// BootstrapOptions holds Bootstrap's test seam; the zero value is what
// production runs.
type BootstrapOptions struct {
	// Sleep is the backoff waiter, injectable so tests run instantly.
	// The default honours context cancellation.
	Sleep func(ctx context.Context, d time.Duration) error
}

// BootstrapStats reports what a bootstrap run did.
type BootstrapStats struct {
	Tasks    int // (peer, shard) pulls attempted
	Entries  int // entries received over transfer frames
	Merged   int // entries the local store accepted
	Retries  int // failed attempts that were retried
	Failures int // tasks abandoned after every retry
}

const (
	defaultTransferConcurrency = 4
	defaultTransferRetries     = 4
	defaultTransferBackoff     = 50 * time.Millisecond
)

func ctxSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Bootstrap streams every shard range this node owns from the current
// members and merges it into the local store. Pulls run
// defaultTransferConcurrency at a time, each tried up to
// defaultTransferRetries times with doubling backoff; a peer answering
// with a stale-epoch rejection hands back its member list, which is
// adopted before the retry, so a bootstrap started mid-membership-change
// converges on the final ring instead of failing. Partial failure is
// not fatal — anti-entropy is the backstop — but is reported so the
// caller can log it.
func (f *Fleet) Bootstrap(ctx context.Context, opts BootstrapOptions) (BootstrapStats, error) {
	sleep := opts.Sleep
	if sleep == nil {
		sleep = ctxSleep
	}

	type task struct {
		peer  string
		shard int
	}
	v := f.View()
	tasks := make([]task, 0, len(v.Peers())*store.NumShards)
	for shard := 0; shard < store.NumShards; shard++ {
		for _, name := range v.Peers() {
			tasks = append(tasks, task{peer: name, shard: shard})
		}
	}

	var (
		mu    sync.Mutex
		stats BootstrapStats
		errs  []error
	)
	stats.Tasks = len(tasks)
	ch := make(chan task)
	workers := min(defaultTransferConcurrency, len(tasks))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range ch {
				got, merged, retries, err := f.pullRange(ctx, t.peer, t.shard, sleep)
				mu.Lock()
				stats.Entries += got
				stats.Merged += merged
				stats.Retries += retries
				if err != nil {
					stats.Failures++
					errs = append(errs, err)
				}
				mu.Unlock()
			}
		}()
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()

	f.mu.Lock()
	f.stats.TransferredIn += uint64(stats.Merged)
	f.stats.TransferRetries += uint64(stats.Retries)
	f.mu.Unlock()
	return stats, errors.Join(errs...)
}

// pullRange pulls one (peer, shard) range with retry/backoff, merging
// whole CRC-valid responses only.
func (f *Fleet) pullRange(ctx context.Context, peer string, shard int, sleep func(context.Context, time.Duration) error) (got, merged, retries int, err error) {
	var lastErr error
	for attempt := 0; attempt < defaultTransferRetries; attempt++ {
		if attempt > 0 {
			retries++
			if err := sleep(ctx, defaultTransferBackoff<<(attempt-1)); err != nil {
				return got, merged, retries, err
			}
		}
		v := f.View()
		p := v.Peer(peer)
		if p == nil {
			// The peer left the membership while we were bootstrapping;
			// its ranges now belong to someone we are also pulling from.
			return got, merged, retries, nil
		}
		entries, err := p.TransferRange(ctx, shard, f.self, v.Epoch())
		if err != nil {
			var em *EpochMismatchError
			if errors.As(err, &em) {
				// The server is on another epoch: adopt its list (if it
				// supersedes ours) and retry under the corrected ring.
				f.ApplyMembership(em.Current)
			}
			lastErr = err
			continue
		}
		got += len(entries)
		for _, e := range entries {
			if f.st.Merge(e) {
				merged++
			}
		}
		return got, merged, retries, nil
	}
	return got, merged, retries, fmt.Errorf("fleet: transfer shard %d from %s: %w", shard, peer, lastErr)
}

// drainBatch bounds one MergeEntries push during Drain.
const drainBatch = 512

// Drain pushes every locally held entry to its owners under the
// current ring. Called after ProposeLeave(self) has removed this node
// from the membership, so "its owners" are the new owners of every
// range this node held — the departing half of a clean leave. Entries
// go out shard by shard, each in entry order (ShardEntries order).
// Returns the number of entry-pushes acknowledged.
func (f *Fleet) Drain(ctx context.Context) (int, error) {
	v := f.View()
	batches := make(map[string][]store.Entry)
	var ownerBuf []string
	for shard := 0; shard < store.NumShards; shard++ {
		for _, e := range f.st.ShardEntries(shard) {
			ownerBuf = v.Owners(e.Key.String(), ownerBuf[:0])
			for _, o := range ownerBuf {
				if o != f.self {
					batches[o] = append(batches[o], e)
				}
			}
		}
	}
	pushed := 0
	var errs []error
	for _, name := range sortedKeys(batches) {
		p := v.Peer(name)
		if p == nil {
			errs = append(errs, fmt.Errorf("fleet: drain: no client for owner %q", name))
			continue
		}
		entries := batches[name]
		for start := 0; start < len(entries); start += drainBatch {
			end := start + drainBatch
			if end > len(entries) {
				end = len(entries)
			}
			chunk := entries[start:end]
			var err error
			for attempt := 0; attempt < defaultTransferRetries; attempt++ {
				if attempt > 0 {
					if serr := ctxSleep(ctx, defaultTransferBackoff<<(attempt-1)); serr != nil {
						return pushed, serr
					}
				}
				if err = p.MergeEntries(ctx, chunk); err == nil {
					break
				}
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("fleet: drain to %s: %w", name, err))
				break
			}
			pushed += len(chunk)
		}
	}
	f.mu.Lock()
	f.stats.Drained += uint64(pushed)
	f.mu.Unlock()
	return pushed, errors.Join(errs...)
}

// RangeEntries returns the entries of one local store shard owned by
// forNode under v's ring — the serving side of a range transfer. The
// caller passes the view it checked the requested epoch against, so the
// range always follows the ring of the epoch the transfer names, even
// if a membership change is adopted meanwhile. Entries come back in
// entry order (ShardEntries order: by context, then cap), so transfer
// frames are deterministic for a given store state.
func (f *Fleet) RangeEntries(v *View[Peer], shard int, forNode string) []store.Entry {
	var out []store.Entry
	var ownerBuf []string
	for _, e := range f.st.ShardEntries(shard) {
		ownerBuf = v.Owners(e.Key.String(), ownerBuf[:0])
		if containsNode(ownerBuf, forNode) {
			out = append(out, e)
		}
	}
	return out
}
