package main

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"chipletnoc/internal/experiments"
	"chipletnoc/internal/soc"
)

// ckptResume runs one AI-Processor simulation three ways: plain, with a
// checkpoint every few hundred cycles (every blob kept), and resumed
// from evenly spaced blobs, each resume running one stride before it is
// suspended again, plus one resumed run to completion. Checkpointed and
// resumed CSVs must equal the plain CSV byte for byte. The snapshot
// codec (encode beside decode) does most of the extra work here and none
// in the quad-die workloads. One op is one such round.
type ckptResume struct {
	spec    experiments.SimSpec
	every   uint64
	resumes int
	rounds  int
	csv     string // the first plain run's CSV
}

func newCkptResume(e *env) workload {
	c := &ckptResume{every: 500, resumes: 4}
	c.spec = experiments.SimSpec{Topology: "ai-processor", Scale: "full", Cycles: 6000}
	if e.smoke() {
		c.spec.Scale, c.spec.Cycles, c.every = "quick", 1200, 200
	}
	return c
}

func (c *ckptResume) Setup(e *env) error {
	c.spec.Seed = e.seed
	return nil
}

type ckptBlob struct {
	cycle uint64
	data  []byte
}

// slicedRunSim is one RunSim call whose host time is recorded slice by
// slice. RunSim polls Interrupt at every slice boundary, so the time
// between two polls is one slice of the simulation (and, on a
// checkpointing run, the checkpoint taken after the slice before): a
// long simulation contributes many short steps, name.0, name.1, ..., the
// last one being the stretch from the final poll to the return.
func slicedRunSim(r *recorder, name string, spec experiments.SimSpec, resume []byte, onCheckpoint func([]byte, uint64) error) (*experiments.SimResult, time.Duration, error) {
	start := time.Now()
	last, n := start, 0
	mark := func() {
		now := time.Now()
		r.step(fmt.Sprintf("%s.%d", name, n), now.Sub(last))
		last = now
		n++
	}
	res, err := experiments.RunSim(spec, resume, &experiments.SimControl{
		Interrupt:    func() experiments.InterruptKind { mark(); return experiments.KeepRunning },
		OnCheckpoint: onCheckpoint,
	})
	mark()
	return res, time.Since(start), err
}

func (c *ckptResume) Round(e *env, r *recorder) {
	op := c.rounds
	c.rounds++
	root := e.tr.begin("ckpt-resume.round", "bench", -1, op, 0)
	start := time.Now()
	work := 0.0

	// (a) plain.
	var plain *experiments.SimResult
	var err error
	var tPlain time.Duration
	e.tr.do("experiments.RunSim[plain]", "experiments", root, op, 0, func() {
		plain, tPlain, err = slicedRunSim(r, "plain", c.spec, nil, nil)
	})
	if !r.check(err == nil, "round %d: plain run: %v", op, err) {
		e.tr.end(root)
		return
	}
	work += float64(c.spec.Cycles)
	csv := plain.CSV()
	if c.csv == "" {
		c.csv = csv
	}
	r.check(csv == c.csv, "round %d: plain CSV differs from the first round's", op)

	// (b) the same spec, checkpointing, every blob kept.
	ck := c.spec
	ck.CheckpointEvery = c.every
	var blobs []ckptBlob
	var ckRes *experiments.SimResult
	var tCk time.Duration
	e.tr.do("experiments.RunSim[checkpointing]", "experiments", root, op, 0, func() {
		ckRes, tCk, err = slicedRunSim(r, "checkpointing", ck, nil, func(data []byte, cycle uint64) error {
			blobs = append(blobs, ckptBlob{cycle, data})
			return nil
		})
	})
	work += float64(c.spec.Cycles)
	if r.check(err == nil, "round %d: checkpointing run: %v", op, err) {
		r.check(ckRes.CSV() == csv, "round %d: checkpointing CSV differs from plain", op)
	}
	if !r.check(len(blobs) >= c.resumes, "round %d: %d checkpoints, want at least %d", op, len(blobs), c.resumes) {
		e.tr.end(root)
		return
	}

	// (c) resume from evenly spaced blobs; each runs one stride and is
	// suspended at its first interrupt poll.
	stride := time.Duration(float64(tPlain) * float64(c.every) / float64(c.spec.Cycles))
	var mid *experiments.Interrupted
	for k := 0; k < c.resumes; k++ {
		b := blobs[k*len(blobs)/c.resumes]
		var firstPoll time.Duration
		span := e.tr.begin("experiments.RunSim[resume]", "experiments", root, op, 0)
		t0 := time.Now()
		_, err := experiments.RunSim(ck, b.data, &experiments.SimControl{Interrupt: func() experiments.InterruptKind {
			firstPoll = time.Since(t0)
			return experiments.SuspendRun
		}})
		e.tr.end(span)
		r.step(fmt.Sprintf("resume-%d", k), time.Since(t0))
		work += float64(c.every)
		var intr *experiments.Interrupted
		if !r.check(errors.As(err, &intr), "round %d: resume at cycle %d: want a suspension, got %v", op, b.cycle, err) {
			continue
		}
		r.check(intr.Cycle == b.cycle+c.every, "round %d: resume at cycle %d suspended at %d, want %d", op, b.cycle, intr.Cycle, b.cycle+c.every)
		r.sample("ckpt.resume_ms_p50", ms(firstPoll-stride))
		if k == c.resumes/2 {
			mid = intr
		}
	}
	// ... and the suspended middle one resumed to completion.
	if mid != nil {
		var res *experiments.SimResult
		e.tr.do("experiments.RunSim[resume to end]", "experiments", root, op, 0, func() {
			res, _, err = slicedRunSim(r, "resume-to-end", ck, mid.Checkpoint, nil)
		})
		work += float64(c.spec.Cycles - mid.Cycle)
		if r.check(err == nil, "round %d: resume to completion: %v", op, err) {
			r.check(res.CSV() == csv, "round %d: resumed CSV differs from plain", op)
		}
	}
	total := time.Since(start)
	e.tr.end(root)
	r.round(total, work/1000)

	r.sample("experiments.runsim_plain_s", seconds(tPlain))
	r.sample("ckpt.overhead_ratio", float64(tCk)/float64(tPlain))
	first, last := blobs[0], blobs[len(blobs)-1]
	r.set("noc.ckpt_bytes_first", float64(len(first.data)))
	r.set("noc.ckpt_bytes_last", float64(len(last.data)))
	if last.cycle > first.cycle {
		r.set("sim.ckpt_bytes_per_kcycle", float64(len(last.data)-len(first.data))*1000/float64(last.cycle-first.cycle))
	}
}

func (c *ckptResume) Finish(e *env, r *recorder) {
	r.setSim("csv", c.csv)
}

func (c *ckptResume) Probe(e *env, r *recorder) {
	// The codec alone, through the system-level wrappers: encode a
	// warmed-up full-scale die, decode into a freshly built one.
	cfg := soc.DefaultAIConfig()
	cfg.Seed = e.seed
	warm := 2000
	if e.smoke() {
		warm = 200
	}
	a := soc.BuildAIProcessor(cfg)
	a.Run(warm)
	var blob []byte
	enc := medianOf(5, func() time.Duration {
		var buf bytes.Buffer
		d := e.tr.do("soc.WriteCheckpoint", "sim", -1, -1, 0, func() {
			r.check(a.WriteCheckpoint(&buf, nil) == nil, "WriteCheckpoint failed")
		})
		blob = buf.Bytes()
		return d
	})
	dec := medianOf(3, func() time.Duration {
		fresh := soc.BuildAIProcessor(cfg)
		return e.tr.do("soc.ReadCheckpoint", "sim", -1, -1, 0, func() {
			_, err := fresh.ReadCheckpoint(bytes.NewReader(blob))
			r.check(err == nil, "ReadCheckpoint: %v", err)
		})
	})
	r.set("noc.ckpt_encode_ms", ms(enc))
	r.set("noc.ckpt_decode_ms", ms(dec))
	if enc > 0 {
		r.set("sim.ckpt_encode_mb_per_s", float64(len(blob))/1e6/seconds(enc))
	}
}

func (c *ckptResume) Close() {}
