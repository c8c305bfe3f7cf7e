package network

import (
	"runtime"
	"testing"

	"rlnoc/internal/config"
)

// TestShardRangePartition is the ownership property behind every
// parallel-path correctness argument: for any fabric size and worker
// count — including workers exceeding the router count — the shard
// ranges are ascending, contiguous and disjoint, and together cover
// exactly [0, nodes). Every router (and so every input port, which is
// owned by its router) belongs to exactly one shard; empty shards are
// legal when workers > nodes.
func TestShardRangePartition(t *testing.T) {
	sizes := []int{1, 2, 3, 15, 16, 17, 63, 64, 65, 100, 256, 1024, 4096}
	for _, nodes := range sizes {
		for workers := 1; workers <= nodes+3; workers++ {
			next := 0
			for w := 0; w < workers; w++ {
				lo, hi := shardRange(w, workers, nodes)
				if lo != next {
					t.Fatalf("nodes=%d workers=%d shard %d: lo=%d, want %d (gap or overlap)",
						nodes, workers, w, lo, next)
				}
				if hi < lo {
					t.Fatalf("nodes=%d workers=%d shard %d: hi=%d < lo=%d",
						nodes, workers, w, hi, lo)
				}
				next = hi
			}
			if next != nodes {
				t.Fatalf("nodes=%d workers=%d: shards cover [0,%d), want [0,%d)",
					nodes, workers, next, nodes)
			}
			// Balance: the classic w*n/W split never puts more than
			// ceil(n/W) routers on a shard, so no worker is a straggler
			// by construction.
			ceil := (nodes + workers - 1) / workers
			for w := 0; w < workers; w++ {
				if lo, hi := shardRange(w, workers, nodes); hi-lo > ceil {
					t.Fatalf("nodes=%d workers=%d shard %d: size %d exceeds ceil %d",
						nodes, workers, w, hi-lo, ceil)
				}
			}
		}
	}
}

// TestResolveStepWorkersCoarsens pins the shard-coarsening rule: an
// environment-derived (or GOMAXPROCS-derived) worker count is capped so
// every shard owns at least minShardRouters routers — small fabrics run
// fewer, fatter shards instead of paying per-worker dispatch for a
// handful of routers each. An explicit Config.StepWorkers stays exact
// (equivalence tests pin odd layouts like 7 workers on a 4x4 fabric).
func TestResolveStepWorkersCoarsens(t *testing.T) {
	cases := []struct {
		explicit int // Config.StepWorkers (0 = unset)
		env      string
		nodes    int
		want     int
	}{
		{8, "", 16, 8},     // explicit: exact, no coarsening
		{7, "", 16, 7},     // explicit: exact
		{0, "8", 16, 1},    // env on 4x4: one shard of 16
		{0, "8", 64, 4},    // env on 8x8: 16 routers per shard
		{0, "8", 1024, 8},  // env on 32x32: plenty of routers
		{0, "3", 1024, 3},  // env below the cap: honored
		{0, "1", 1024, 1},  // sequential stays sequential
		{0, "8", 100, 7},   // ceil(100/16) = 7
		{2000, "", 16, 16}, // explicit still clamps to nodes
	}
	for _, tc := range cases {
		if tc.env != "" {
			t.Setenv("RLNOC_STEP_WORKERS", tc.env)
		} else {
			t.Setenv("RLNOC_STEP_WORKERS", "")
		}
		if got := resolveStepWorkers(tc.explicit, tc.nodes); got != tc.want {
			t.Errorf("resolveStepWorkers(%d, nodes=%d, env=%q) = %d, want %d",
				tc.explicit, tc.nodes, tc.env, got, tc.want)
		}
	}
}

// TestClosedParallelNetworksAreCollected builds, steps and closes a run
// of two-worker 16x16 networks and requires the live heap after a
// collection not to grow with their number. Each NI points back at its
// Network, so anything that pins a closed Network (a finalizer on it,
// a worker still holding it) keeps the whole fabric in the heap.
func TestClosedParallelNetworksAreCollected(t *testing.T) {
	cfg := config.Small()
	cfg.Width, cfg.Height = 16, 16
	cfg.StepWorkers = 2
	liveHeap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	build := func() *Network {
		n := newNet(t, cfg, Mode1, true)
		if _, err := n.NewDataPacket(0, cfg.Routers()-1, 4, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			if err := n.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if n.hub == nil {
			t.Fatal("network never stepped in parallel")
		}
		return n
	}
	build().Close() // fill process-wide memos before the baseline
	base := liveHeap()
	held := build()
	size := liveHeap() - base
	held.Close()
	runtime.KeepAlive(held)

	base = liveHeap()
	const count = 10
	for i := 0; i < count; i++ {
		build().Close()
	}
	if grew := int64(liveHeap()) - int64(base); grew > int64(size)/2 {
		t.Fatalf("live heap grew %d B over %d closed networks of %d B each", grew, count, size)
	}
}
