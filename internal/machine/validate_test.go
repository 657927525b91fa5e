package machine_test

import (
	"math"
	"strings"
	"testing"

	"alewife/internal/machine"
	"alewife/internal/mesh"
	"alewife/internal/stress"
)

// Validate rejects one bad value per check, and New panics with the same
// message before building anything.
func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		set  func(*machine.Config)
		want string
	}{
		{"nodes-zero", func(c *machine.Config) { c.Nodes = 0 }, "nodes"},
		{"words-not-power-of-two", func(c *machine.Config) { c.WordsPerNode = 1000 }, "WordsPerNode"},
		{"words-zero", func(c *machine.Config) { c.WordsPerNode = 0 }, "WordsPerNode"},
		{"words-below-a-line", func(c *machine.Config) { c.WordsPerNode = 1 }, "WordsPerNode"},
		{"cache-sets-three", func(c *machine.Config) { c.CacheSets = 3 }, "CacheSets"},
		{"cache-sets-zero", func(c *machine.Config) { c.CacheSets = 0 }, "CacheSets"},
		{"cache-sets-negative", func(c *machine.Config) { c.CacheSets = -4 }, "CacheSets"},
		{"cache-ways-zero", func(c *machine.Config) { c.CacheWays = 0 }, "CacheWays"},
		{"hw-pointers-zero", func(c *machine.Config) { c.HWPointers = 0 }, "HWPointers"},
		{"topology-past-ideal", func(c *machine.Config) { c.Topology = machine.TopoIdeal + 1 }, "topology"},
		{"topology-negative", func(c *machine.Config) { c.Topology = -1 }, "topology"},
		{"fault-drop-above-one", func(c *machine.Config) { c.Net.Fault = &mesh.NetFault{Seed: 1, Drop: 1.5} }, "Net.Fault"},
		{"fault-dup-negative", func(c *machine.Config) { c.Net.Fault = &mesh.NetFault{Seed: 1, Dup: -0.1} }, "Net.Fault"},
		{"fault-reorder-nan", func(c *machine.Config) { c.Net.Fault = &mesh.NetFault{Seed: 1, Reorder: math.NaN()} }, "Net.Fault"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := machine.DefaultConfig(4)
			tc.set(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want an error naming %s", err, tc.want)
			}
			defer func() {
				if r := recover(); r != err.Error() {
					t.Fatalf("New panicked with %v, want %q", r, err)
				}
			}()
			machine.New(cfg)
		})
	}
}

// Every machine the tree builds passes Validate: the default at every
// size the experiments use, the stress harness's, alewife-perf's dir-churn
// and the LimitLESS ablation's pointer counts, over lossy wires too.
func TestValidateAcceptsBuiltConfigs(t *testing.T) {
	var cfgs []machine.Config
	for n := 1; n <= 64; n++ {
		cfgs = append(cfgs, machine.DefaultConfig(n))
	}
	for _, lossy := range []bool{false, true} {
		sc := stress.DefaultConfig(1)
		sc.Ops = 1
		if lossy {
			sc.NetFault = stress.LossFromSeed(1)
		}
		sc.Hook = func(m *machine.Machine) { cfgs = append(cfgs, m.Cfg) }
		if _, err := stress.Run(sc); err != nil {
			t.Fatalf("stress run: %v", err)
		}
	}
	churn := machine.DefaultConfig(8)
	churn.CacheSets, churn.CacheWays, churn.HWPointers = 16, 1, 4
	cfgs = append(cfgs, churn)
	for _, k := range []int{1, 64} {
		c := machine.DefaultConfig(64)
		c.HWPointers = k
		cfgs = append(cfgs, c)
	}
	for _, cfg := range cfgs {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%d-node config rejected: %v", cfg.Nodes, err)
		}
	}
	if len(cfgs) != 64+2+1+2 {
		t.Fatalf("checked %d configs, want %d: a stress hook did not run", len(cfgs), 64+2+1+2)
	}
}
