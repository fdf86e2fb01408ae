package soc

import (
	"bytes"
	"testing"
)

// ckptBenchDie is a full-scale AI die warmed up 3000 cycles, with the
// checkpoint it writes there: the shape the benchmark's ckpt-resume
// probe encodes and decodes, in-flight CHI messages and flits in every
// memory controller and requester.
func ckptBenchDie(b *testing.B) (*AIProcessor, []byte) {
	b.Helper()
	a := BuildAIProcessor(DefaultAIConfig())
	a.Run(3000)
	var buf bytes.Buffer
	if err := a.WriteCheckpoint(&buf, nil); err != nil {
		b.Fatal(err)
	}
	return a, buf.Bytes()
}

// BenchmarkCheckpointEncode times WriteCheckpoint of the warmed die and
// reports the checkpoint's size as bytes.
func BenchmarkCheckpointEncode(b *testing.B) {
	a, blob := ckptBenchDie(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := a.WriteCheckpoint(&buf, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(blob)), "bytes")
}

// BenchmarkCheckpointDecode times ReadCheckpoint of that checkpoint into
// a freshly built die (the build is not timed) and reports its size.
func BenchmarkCheckpointDecode(b *testing.B) {
	_, blob := ckptBenchDie(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh := BuildAIProcessor(DefaultAIConfig())
		b.StartTimer()
		if _, err := fresh.ReadCheckpoint(bytes.NewReader(blob)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(blob)), "bytes")
}
