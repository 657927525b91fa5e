package machine_test

import (
	"strings"
	"testing"

	"alewife/internal/cmmu"
	"alewife/internal/machine"
	"alewife/internal/mesh"
	"alewife/internal/metrics"
	"alewife/internal/trace"
)

// metricsWorkload exercises every attribution source at machine level:
// local hits, remote miss stalls, compute, a message (sender describe cost
// plus receiver handler occupancy) and a blocking park.
func metricsWorkload(m *machine.Machine) {
	a := m.Store.AllocOn(1, 8)
	m.Nodes[1].CMMU.Register(99, func(e *cmmu.Env) {
		e.ReadOps(len(e.Ops))
		e.Elapse(40)
	})
	m.Spawn(0, 0, "w", func(p *machine.Proc) {
		p.Elapse(200) // compute
		_ = p.Read(a) // remote miss
		_ = p.Read(a) // hit
		p.Write(a, 7) // upgrade
		p.SendMessage(cmmu.Descriptor{Type: 99, Dst: 1, Ops: []uint64{1, 2}})
		p.Flush()
	})
	// Handler occupancy is stolen from the receiving node's processor, so
	// node 1 needs one whose flush happens after the message landed (the
	// first Flush runs at sim time 0; the second, at 2000, collects the
	// cycles the handler stole in between).
	m.Spawn(1, 0, "victim", func(p *machine.Proc) {
		p.Elapse(2000)
		p.Flush()
		p.Elapse(10)
		p.Flush()
	})
	m.Run()
}

func TestMetricsMachineLevelAttribution(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	prof := m.EnableMetrics()
	metricsWorkload(m)
	if err := prof.Finalize(uint64(m.Eng.Now())); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if err := prof.CheckInvariant(); err != nil {
		t.Fatalf("CheckInvariant: %v", err)
	}
	for _, want := range []metrics.Bucket{
		metrics.Compute, metrics.CacheHit, metrics.MissStall,
		metrics.Handler, metrics.DirPipeline, metrics.NetTransit,
	} {
		if prof.Total(want) == 0 {
			t.Errorf("bucket %v empty after workload:\n%s", want, prof)
		}
	}
	// The sender's node 0 did the computing; the handler ran on node 1.
	if prof.Get(0, metrics.Compute) == 0 {
		t.Errorf("node 0 recorded no compute")
	}
	if prof.Get(1, metrics.Handler) == 0 {
		t.Errorf("node 1 recorded no handler occupancy")
	}
}

// TestMetricsNeverChangeTiming turns the trace and the profiler on
// together over every network the machine builds, and over a lossy mesh
// under cmmu.Reliable: instrumentation reproduces the plain machine's
// cycles and counters exactly, and every consumer still hears the run —
// on the lossy row that includes the mesh beneath the sublayer.
func TestMetricsNeverChangeTiming(t *testing.T) {
	for _, row := range []struct {
		name  string
		topo  machine.Topology
		fault *mesh.NetFault
	}{
		{"mesh", machine.TopoMesh, nil},
		{"ideal", machine.TopoIdeal, nil},
		{"lossy-mesh", machine.TopoMesh, &mesh.NetFault{Seed: 5, Drop: 0.1, Dup: 0.1, Reorder: 0.1}},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := machine.DefaultConfig(2)
			cfg.Topology = row.topo
			cfg.Net.Fault = row.fault
			plain := machine.New(cfg)
			metricsWorkload(plain)

			m := machine.New(cfg)
			if (m.Rel != nil) != (row.fault != nil) {
				t.Fatalf("reliable sublayer interposed = %v on %s", m.Rel != nil, row.name)
			}
			buf := m.EnableTrace(1 << 12)
			prof := m.EnableMetrics()
			metricsWorkload(m)

			if plain.Eng.Now() != m.Eng.Now() {
				t.Fatalf("instrumentation changed machine time: %d vs %d", plain.Eng.Now(), m.Eng.Now())
			}
			if plain.St.String() != m.St.String() {
				t.Fatalf("instrumentation changed stats counters:\n%s\nvs\n%s", plain.St, m.St)
			}
			kinds := buf.CountByKind()
			for _, k := range []trace.Kind{trace.KMiss, trace.KMsgSend} {
				if kinds[k] == 0 {
					t.Errorf("trace holds no %v events: %v", k, kinds)
				}
			}
			for _, b := range []metrics.Bucket{metrics.DirPipeline, metrics.NetTransit} {
				if prof.Total(b) == 0 {
					t.Errorf("bucket %v empty after workload:\n%s", b, prof)
				}
			}
		})
	}
}

func TestMetricsHandlerStealLandsInHandler(t *testing.T) {
	// Handler cycles booked on the node's controller are paid at the next
	// flush and keep their origin: they land in handler, not in compute.
	m := machine.New(machine.DefaultConfig(1))
	prof := m.EnableMetrics()
	m.Spawn(0, 0, "p", func(p *machine.Proc) {
		p.Elapse(10)
		m.Nodes[0].Ctrl.StealHandler(90)
		p.Flush()
	})
	m.Run()
	if err := prof.Finalize(uint64(m.Eng.Now())); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got := prof.Get(0, metrics.Handler); got != 90 {
		t.Errorf("handler = %d, want 90 (the booked handler cycles)", got)
	}
	if got := prof.Get(0, metrics.Compute); got != 10 {
		t.Errorf("compute = %d, want 10 (the proc's own cycles)", got)
	}
}

func TestMetricsStringMentionsOverlay(t *testing.T) {
	m := machine.New(machine.DefaultConfig(2))
	prof := m.EnableMetrics()
	metricsWorkload(m)
	if err := prof.Finalize(uint64(m.Eng.Now())); err != nil {
		t.Fatal(err)
	}
	if s := prof.String(); !strings.Contains(s, "(overlay)") {
		t.Errorf("String() should tag overlay buckets:\n%s", s)
	}
}
