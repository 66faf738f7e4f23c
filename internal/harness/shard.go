package harness

import (
	"errors"
	"fmt"
	"hash/fnv"
)

// Sharding splits a sweep's point grid across cooperating processes: every
// process runs the same experiments with the same Options except for
// ShardIndex, each computes only the points it owns, and all of them store
// into one shared flock-guarded cache directory. A final merge pass — the
// same sweep with Shards back at 1 against the warm cache — then assembles
// a Series bit-for-bit identical to a single-process run: every point is a
// cache hit, and any point a crashed shard failed to deliver is simply
// computed by the merge pass itself.
//
// Ownership is a pure function of the point's identity (experiment ID plus
// full cache key), not of enumeration order, so any process — or CI shard
// on a different machine — partitions the grid identically without
// coordination. Every cached point goes through fanOut, so every cached
// experiment splits; the few that simulate outside it (fig2, tbl-hw,
// profile, sloppy-threshold) cache nothing and run whole in every shard.

// errShardSkipped marks a sweep point owned by another shard: the point is
// omitted from both Series.Points and Series.Failed.
var errShardSkipped = errors.New("harness: sweep point owned by another shard")

// ValidateShards checks a Shards/ShardIndex combination, returning an
// actionable error for the CLI (and mosbench.Run) to surface.
func ValidateShards(shards, index int) error {
	if shards < 1 {
		return fmt.Errorf("shards must be at least 1, got %d", shards)
	}
	if index < 0 {
		return fmt.Errorf("shard index must not be negative, got %d", index)
	}
	if index >= shards {
		return fmt.Errorf("shard index %d out of range for %d shard(s); valid indices are 0..%d",
			index, shards, shards-1)
	}
	return nil
}

// rowSkipReason explains why a derived row (fig3's ratio, fig12's
// retention) cannot be assembled from its per-measurement errors: a benign
// shard split, or a real failure listed in Series.Failed.
func rowSkipReason(errs []error) string {
	for _, err := range errs {
		if err != nil && !errors.Is(err, errShardSkipped) {
			return "a measurement failed (see failed points)"
		}
	}
	return "a measurement is owned by another shard (the merge pass assembles this row)"
}

// shardOwns reports whether this Options' shard owns the sweep point
// addressed by (exp, cacheKey). With Shards unset (or 1) every point is
// owned.
func (o Options) shardOwns(exp, key string) bool {
	if o.Shards <= 1 {
		return true
	}
	h := fnv.New64a()
	h.Write([]byte(exp))
	h.Write([]byte{'|'})
	h.Write([]byte(key))
	return h.Sum64()%uint64(o.Shards) == uint64(o.ShardIndex)
}
