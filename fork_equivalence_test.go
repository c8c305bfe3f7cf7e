package rlnoc

// Fork referee for the suite (DESIGN.md §15). RunSuite pre-trains each
// scheme once and measures every benchmark on a fork restored from that
// pretrained state. That is sound only because pre-training depends on
// nothing but (config, scheme): each forked cell must encode to the same
// bytes as a fresh Run, which pre-trains from scratch. Two benchmarks per
// base also prove that forking does not mutate the shared state.

import "testing"

func TestSuiteForkMatchesFresh(t *testing.T) {
	benches := []string{"canneal", "swaptions"}
	for _, topo := range []string{"mesh", "torus"} {
		t.Run(topo, func(t *testing.T) {
			t.Parallel()
			cfg := SmallConfig()
			cfg.Topology = topo
			// qroute on a torus needs escape/adaptive x dateline VC classes.
			cfg.VCsPerPort = 8
			cfg.PretrainCycles = 3000
			cfg.WarmupCycles = 500
			cfg.MaxCycles = 3000
			cfg.DrainCycles = 15000
			cfg.Seed = 20261017
			suite, err := runSuite(cfg, benches, AllSchemes())
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range benches {
				for _, sc := range AllSchemes() {
					fresh, err := Run(cfg, sc, b)
					if err != nil {
						t.Fatalf("%s/%s fresh: %v", b, sc, err)
					}
					got, want := serialize(t, suite.Results[b][sc]), serialize(t, fresh)
					if got != want {
						t.Errorf("%s/%s: forked run differs from fresh run:\n fork:  %s\n fresh: %s", b, sc, got, want)
					}
				}
			}
		})
	}
}
