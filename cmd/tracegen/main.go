// Command tracegen produces NoC trace files — the paper's "instruction
// trace record" input format — either from the MLPerf layer models or as
// synthetic streams, and can replay a trace against a small test rig.
//
// Examples:
//
//	tracegen -model resnet50 -layer 10 -cores 8 -demand 512 -out /tmp/l10
//	tracegen -synthetic -ops 1000 -rate 0.25 -rw 0.7 -out /tmp/synth.trace
//	tracegen -replay /tmp/l10.core0.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"chipletnoc/internal/sim"
	"chipletnoc/internal/traffic"
	"chipletnoc/internal/workloads"
)

func main() {
	model := flag.String("model", "resnet50", "layer source: resnet50|bert|maskrcnn")
	layerIdx := flag.Int("layer", 10, "layer index within the model trace")
	cores := flag.Int("cores", 8, "cores to spread the layer over")
	demand := flag.Float64("demand", 512, "aggregate issue rate in bytes/cycle")
	lineBytes := flag.Int("line", 512, "transfer granule in bytes")
	out := flag.String("out", "", "output path prefix (one file per core)")

	synthetic := flag.Bool("synthetic", false, "generate a synthetic stream instead of a model layer")
	ops := flag.Int("ops", 1000, "synthetic: operations to generate")
	rate := flag.Float64("rate", 0.25, "synthetic: operations per cycle")
	rw := flag.Float64("rw", 0.7, "synthetic: read fraction")
	seed := flag.Uint64("seed", 1, "synthetic: random seed")

	replay := flag.String("replay", "", "replay a trace file against a test rig and report")
	flag.Parse()

	switch {
	case *replay != "":
		if err := replayFile(*replay); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case *synthetic:
		if err := genSynthetic(*out, *ops, *rate, *rw, *lineBytes, *seed); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		if err := genLayer(*model, *layerIdx, *cores, *demand, *lineBytes, *out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

func layersOf(model string) ([]workloads.Layer, error) {
	switch model {
	case "resnet50":
		return workloads.ResNet50Layers(), nil
	case "bert":
		return workloads.BERTLayers(), nil
	case "maskrcnn":
		return workloads.MaskRCNNLayers(), nil
	default:
		return nil, fmt.Errorf("tracegen: unknown model %q", model)
	}
}

func genLayer(model string, idx, cores int, demand float64, line int, out string) error {
	layers, err := layersOf(model)
	if err != nil {
		return err
	}
	if idx < 0 || idx >= len(layers) {
		return fmt.Errorf("tracegen: %s has %d layers", model, len(layers))
	}
	l := layers[idx]
	fmt.Printf("layer %q: %.3g FLOPs, %.3g bytes\n", l.Name, l.FLOPs, l.Bytes)
	traces := workloads.LayerTrace(l, cores, line, demand, 0.3)
	if out == "" {
		return fmt.Errorf("tracegen: -out required")
	}
	for c, ops := range traces {
		path := fmt.Sprintf("%s.core%d.trace", out, c)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := traffic.FormatTrace(f, ops); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d ops)\n", path, len(ops))
	}
	return nil
}

func genSynthetic(out string, ops int, rate, rw float64, line int, seed uint64) error {
	if out == "" {
		return fmt.Errorf("tracegen: -out required")
	}
	if rate <= 0 {
		return fmt.Errorf("tracegen: -rate must be positive")
	}
	rng := sim.NewRNG(seed)
	var trace []traffic.TraceOp
	cycle := 0.0
	for i := 0; i < ops; i++ {
		trace = append(trace, traffic.TraceOp{
			Cycle: uint64(cycle),
			Write: !rng.Bernoulli(rw),
			Addr:  uint64(rng.Intn(1<<20)) * uint64(line),
			Size:  line,
		})
		cycle += 1 / rate
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := traffic.FormatTrace(f, trace); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d ops)\n", out, len(trace))
	return nil
}

// replayFile runs a trace against workloads.ReplayRig and reports timing
// fidelity.
func replayFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	ops, err := traffic.ParseTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	if len(ops) == 0 {
		return fmt.Errorf("tracegen: empty trace")
	}
	net, rep := workloads.ReplayRig(ops)
	budget := int(ops[len(ops)-1].Cycle)*10 + 200000
	if !net.RunUntil(rep.Done, budget) {
		return fmt.Errorf("tracegen: replay incomplete (%d/%d ops)", rep.Completed, len(ops))
	}
	sched := ops[len(ops)-1].Cycle + 1
	fmt.Printf("replayed %d ops (%d bytes) in %d cycles (schedule %d)\n",
		rep.Completed, rep.BytesMoved, net.Ticks(), sched)
	fmt.Printf("slip: %d cycles accumulated\n", rep.SlipCycles)
	return nil
}
