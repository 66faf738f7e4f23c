package harness

import (
	"fmt"
	"reflect"
	"testing"
)

// TestShardPartitionCoversGridExactlyOnce pins the partition function
// itself: for any shard count, every point identity is owned by exactly
// one shard index, with no coordination between the owners.
func TestShardPartitionCoversGridExactlyOnce(t *testing.T) {
	var keys []string
	base := Options{Quick: true, Seed: 7}
	for _, variant := range []string{"Stock", "PK", "PK + striped"} {
		for cores := 1; cores <= 48; cores++ {
			keys = append(keys, base.cacheKey(variant, cores))
		}
	}
	for _, shards := range []int{1, 2, 3, 5, 16} {
		perShard := make([]int, shards)
		for _, key := range keys {
			owners := 0
			for idx := 0; idx < shards; idx++ {
				o := Options{Shards: shards, ShardIndex: idx}
				if o.shardOwns("fig4", key) {
					owners++
					perShard[idx]++
				}
			}
			if owners != 1 {
				t.Fatalf("shards=%d: key %q owned by %d shards, want exactly 1", shards, key, owners)
			}
		}
		// Not a correctness requirement, but a wildly lopsided hash would
		// defeat the point of sharding; every shard must get real work on
		// a 144-point grid.
		for idx, n := range perShard {
			if n == 0 {
				t.Errorf("shards=%d: shard %d owns no points of %d", shards, idx, len(keys))
			}
		}
	}
}

// TestShardedSweepBitIdentical is the coordinator's acceptance guarantee:
// shard workers sharing one cache directory plus a merge pass produce a
// Series bit-for-bit identical to a single-process run — and the merge
// pass simulates nothing (every lookup hits).
func TestShardedSweepBitIdentical(t *testing.T) {
	for _, tc := range []struct {
		exp    string
		shards int
	}{
		{"fig3", 2}, // rows built from four fan-out points each
		{"fig5", 2},
		{"fig10", 3}, // variant-rich grid, including the striped RR curve
		{"degrade", 2},
		{"dma", 2},
		{"ablate", 2},
		{"fig12", 2}, // rows built from two fan-out points each
		{"spool-dirs", 2},
		{"lockmgr", 2},
		{"scalable-locks", 2},
		{"steering", 3}, // at 2 shards every point hashes to shard 1
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s-%dshards", tc.exp, tc.shards), func(t *testing.T) {
			t.Parallel()
			e := ByID(tc.exp)
			single := e.Run(Options{Quick: true, Seed: 7})

			dir := t.TempDir()
			var stored []int // points each shard computed
			for idx := 0; idx < tc.shards; idx++ {
				c, err := OpenCache(dir)
				if err != nil {
					t.Fatal(err)
				}
				e.Run(Options{Quick: true, Seed: 7, Cache: c, Shards: tc.shards, ShardIndex: idx})
				stored = append(stored, int(c.Misses()))
				if err := c.Save(); err != nil {
					t.Fatal(err)
				}
			}

			mc, err := OpenCache(dir)
			if err != nil {
				t.Fatal(err)
			}
			merged := e.Run(Options{Quick: true, Seed: 7, Cache: mc})
			if mc.Misses() != 0 {
				t.Errorf("merge pass missed %d lookups, want 0 (shards should have computed the whole grid)", mc.Misses())
			}
			// Each shard computes a proper, nonempty part of the grid.
			for idx, n := range stored {
				if n == 0 || n >= mc.Len() {
					t.Errorf("shard %d of %d computed %d of %d points, want a proper nonempty subset",
						idx, tc.shards, n, mc.Len())
				}
			}
			if !reflect.DeepEqual(single, merged) {
				t.Errorf("%s: merged %d-shard sweep differs from single-process sweep:\nsingle: %+v\nmerged: %+v",
					tc.exp, tc.shards, single, merged)
			}
		})
	}
}

// TestShardWorkerOmitsForeignPoints: a worker's own Series contains only
// the points it owns — skipped points appear in neither Points nor Failed.
func TestShardWorkerOmitsForeignPoints(t *testing.T) {
	e := ByID("fig5")
	full := e.Run(Options{Quick: true, Seed: 7})
	total := 0
	for idx := 0; idx < 2; idx++ {
		s := e.Run(Options{Quick: true, Seed: 7, Shards: 2, ShardIndex: idx})
		if len(s.Failed) != 0 {
			t.Errorf("shard %d reported %d failed points, want 0: %+v", idx, len(s.Failed), s.Failed)
		}
		if len(s.Points) >= len(full.Points) {
			t.Errorf("shard %d computed %d of %d points; skipping is not happening", idx, len(s.Points), len(full.Points))
		}
		total += len(s.Points)
	}
	if total != len(full.Points) {
		t.Errorf("2 shards computed %d points in total, want the full grid's %d", total, len(full.Points))
	}
}

// TestValidateShards pins the CLI-facing validation messages.
func TestValidateShards(t *testing.T) {
	for _, tc := range []struct {
		shards, index int
		wantErr       bool
	}{
		{1, 0, false}, {2, 0, false}, {2, 1, false}, {16, 15, false},
		{0, 0, true}, {-1, 0, true}, {2, -1, true}, {2, 2, true}, {2, 5, true},
	} {
		err := ValidateShards(tc.shards, tc.index)
		if (err != nil) != tc.wantErr {
			t.Errorf("ValidateShards(%d, %d) = %v, wantErr=%v", tc.shards, tc.index, err, tc.wantErr)
		}
	}
}
