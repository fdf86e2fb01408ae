package noc_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"chipletnoc/internal/config"
	"chipletnoc/internal/metrics"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/serving"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/soc"
	"chipletnoc/internal/traffic"
)

// A system is its network: the device list decides what ticks, what a
// checkpoint walks, what registers metrics and how a run loop advances.

// TestRunUntilStopsWhereTickLoopStops holds the one run loop to a loop of
// Tick calls that polls the same predicate every cycle. Requesters with
// one transaction each in flight wait on slow memories, so the fabric
// falls quiet while they are served — stretches RunUntil jumps — and a
// request's delivery is often the last thing to happen before one. Every
// run to the next delivery must end on the same cycle, a run the
// predicate never ends must return false after exactly its budget, and
// the two networks must end in the same state.
func TestRunUntilStopsWhereTickLoopStops(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "config", "testdata", "diff-mesh.json"))
	if err != nil {
		t.Fatal(err)
	}
	build := func() *noc.Network {
		spec, err := config.Parse(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range spec.Devices {
			if d := &spec.Devices[i]; d.Type == "requester" {
				d.Outstanding, d.Rate, d.MaxRequests = 1, 1, 12
			} else {
				d.AccessCycles *= 20
			}
		}
		sys, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		return sys.Net
	}
	ref, net := build(), build()
	const budget = 200
	for ref.Ticks() < 3000 {
		target := ref.DeliveredFlits + 1
		for i := 0; i < budget && ref.DeliveredFlits < target; i++ {
			ref.Tick(sim.Cycle(ref.Ticks()))
		}
		start := net.Ticks()
		got := net.RunUntil(func() bool { return net.DeliveredFlits >= target }, budget)
		if want := ref.DeliveredFlits >= target; got != want || net.Ticks() != ref.Ticks() {
			t.Fatalf("run from cycle %d to delivery %d: RunUntil returned %v at cycle %d, the Tick loop %v at cycle %d",
				start, target, got, net.Ticks(), want, ref.Ticks())
		}
		if !got && net.Ticks() != start+budget {
			t.Fatalf("unmet run from cycle %d ended at %d, want %d", start, net.Ticks(), start+budget)
		}
	}
	if net.SkippedCycles == 0 {
		t.Fatal("RunUntil jumped no cycle: the rig has no quiescent stretch to test against")
	}
	start := net.Ticks()
	if net.RunUntil(func() bool { return false }, 777) || net.Ticks() != start+777 {
		t.Fatalf("a predicate that never fires ran %d cycles of a 777-cycle budget", net.Ticks()-start)
	}
	for i := 0; i < 777; i++ {
		ref.Tick(sim.Cycle(ref.Ticks()))
	}
	var a, b bytes.Buffer
	if err := noc.WriteCheckpoint(&a, ref, nil); err != nil {
		t.Fatal(err)
	}
	if err := noc.WriteCheckpoint(&b, net, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("RunUntil and the Tick loop ended in different states (checkpoint bytes differ)")
	}
}

// instrumentNames returns every instrument name reg holds, sorted.
func instrumentNames(reg *metrics.Registry) []string {
	s := reg.Snapshot("", 0)
	var names []string
	for n := range s.Counters {
		names = append(names, n)
	}
	for n := range s.Gauges {
		names = append(names, n)
	}
	for _, sr := range s.Series {
		names = append(names, sr.Name)
	}
	sort.Strings(names)
	return names
}

// nameSetDigest condenses a sorted name set into its size and FNV-1a.
func nameSetDigest(names []string) string {
	h := fnv.New64a()
	h.Write([]byte(strings.Join(names, "\n")))
	return fmt.Sprintf("%d %#x", len(names), h.Sum64())
}

// TestMetricsRegisterEveryDevice pins what Network.EnableMetrics
// registers: the name sets the per-system registration lists produced
// before the network registered its devices itself (serving's plus its
// memory controllers, which its list left out), with the network's own
// probes first and each device's series after them in registration order.
func TestMetricsRegisterEveryDevice(t *testing.T) {
	type tc struct {
		name, want string
		net        *noc.Network
		// unlisted are devices the old list left out, registered now.
		unlisted []noc.MetricsRegisterer
	}
	var cases []tc

	ai := soc.QuickAIConfig()
	cases = append(cases, tc{name: "ai", want: "252 0x9f6730742a3ce4c0", net: soc.BuildAIProcessor(ai).Net})

	memCores := soc.BuildServerCPU(soc.ScaledServerConfig(8), soc.MemoryCores, func(core int, s *soc.ServerCPU) traffic.RequesterConfig {
		return traffic.RequesterConfig{Outstanding: 4, Rate: 1, LineBytes: 64,
			Stream:   traffic.NewSeqStream(uint64(core)<<28, 64, 1<<22),
			TargetOf: traffic.InterleavedTargetsBy(s.AllDDRNodes(), 64)}
	})
	cases = append(cases, tc{name: "server-cpu/memory-cores", want: "168 0x8c58d4e99a859b57", net: memCores.Net})
	coherent := soc.DefaultServerConfig()
	coherent.ClustersPerDie = 2
	cases = append(cases, tc{name: "server-cpu/coherent-cores", want: "94 0x851d9dce2d4c291e",
		net: soc.BuildServerCPU(coherent, soc.CoherentCores, nil).Net})

	docs := map[string]string{
		"diff-hub.json":         "76 0x5dd22d03878e4a7b",
		"diff-mesh-faults.json": "73 0x31802069b4e81af2",
		"diff-mesh.json":        "73 0x31802069b4e81af2",
		"diff-multiring.json":   "83 0x5026e124bb6286d8",
	}
	files, err := filepath.Glob(filepath.Join("..", "config", "testdata", "diff-*.json"))
	if err != nil || len(files) != len(docs) {
		t.Fatalf("testdata has %d diff-*.json documents (%v), the test pins %d", len(files), err, len(docs))
	}
	for _, f := range files {
		doc, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := config.Parse(doc)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, tc{name: filepath.Base(f), want: docs[filepath.Base(f)], net: sys.Net})
	}

	spec, err := config.ParseServingSpec([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	spec.ApplyDefaults(true)
	srv, err := serving.Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	c := tc{name: "serving", want: "68 0xdefa5ef77419b29c", net: srv.Net}
	for _, m := range srv.Mems {
		c.unlisted = append(c.unlisted, m)
	}
	cases = append(cases, c)

	for _, c := range cases {
		reg := metrics.New(100)
		c.net.EnableMetrics(reg)
		names := instrumentNames(reg)
		for _, d := range c.unlisted {
			own := metrics.New(100)
			d.RegisterMetrics(own)
			for _, n := range instrumentNames(own) {
				i, found := slices.BinarySearch(names, n)
				if !found {
					t.Fatalf("%s: %s is not registered", c.name, n)
				}
				names = slices.Delete(names, i, i+1)
			}
		}
		if got := nameSetDigest(names); got != c.want {
			t.Errorf("%s: instrument set %s, want %s:\n%s", c.name, got, c.want, strings.Join(names, "\n"))
		}

		// The series end with every device's own, device after device.
		var devSeries []string
		for _, d := range c.net.Devices() {
			if mr, ok := d.(noc.MetricsRegisterer); ok {
				own := metrics.New(100)
				mr.RegisterMetrics(own)
				for _, s := range own.Snapshot("", 0).Series {
					devSeries = append(devSeries, s.Name)
				}
			}
		}
		var series []string
		for _, s := range reg.Snapshot("", 0).Series {
			series = append(series, s.Name)
		}
		if len(devSeries) == 0 || len(series) < len(devSeries) || !slices.Equal(series[len(series)-len(devSeries):], devSeries) {
			t.Errorf("%s: series are not the network's probes followed by each device's in registration order:\n%s",
				c.name, strings.Join(series, "\n"))
		}
	}
}

// TestEverySystemExportsItsTopology: every system the tree builds — the
// AI die, the Server-CPU at one and two packages, a serving fabric and the
// four reference fabrics — exports a Topology whose Describe bytes read
// back into the same Topology, re-render identically and are what
// TopoHash hashes; and the export lists every node and device.
func TestEverySystemExportsItsTopology(t *testing.T) {
	nets := map[string]*noc.Network{
		"ai":         soc.BuildAIProcessor(soc.DefaultAIConfig()).Net,
		"server-cpu": soc.BuildServerCPU(soc.DefaultServerConfig(), soc.CoherentCores, nil).Net,
	}
	quad := soc.DefaultServerConfig()
	quad.Packages, quad.ClustersPerDie = 2, 2
	nets["quad-die"] = soc.BuildServerCPU(quad, soc.CoherentCores, nil).Net
	spec, err := config.ParseServingSpec([]byte(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	spec.ApplyDefaults(true)
	srv, err := serving.Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	nets["serving"] = srv.Net
	files, err := filepath.Glob(filepath.Join("..", "config", "testdata", "diff-*.json"))
	if err != nil || len(files) != 4 {
		t.Fatalf("testdata has %d diff-*.json documents (%v), want 4", len(files), err)
	}
	for _, f := range files {
		doc, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := config.Parse(doc)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		nets[filepath.Base(f)] = sys.Net
	}
	for name, net := range nets {
		topo, out := net.Topology(), net.Describe()
		var back noc.Topology
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("%s: Describe is not a Topology: %v", name, err)
		}
		again, err := json.Marshal(back)
		if err != nil || !reflect.DeepEqual(back, topo) || !bytes.Equal(again, out) {
			t.Errorf("%s: Describe does not round-trip (%v)", name, err)
		}
		if net.TopoHash() != sim.FNV1a(out) {
			t.Errorf("%s: TopoHash is not the hash of Describe's bytes", name)
		}
		if len(topo.Rings) != len(net.Rings()) || len(topo.Devices) != len(net.Devices()) || len(topo.Nodes) == 0 {
			t.Errorf("%s: export has %d rings, %d devices, %d nodes", name, len(topo.Rings), len(topo.Devices), len(topo.Nodes))
		}
	}
}
