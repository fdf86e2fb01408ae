package serving

import (
	"reflect"
	"testing"
)

// TestSteadyStateMintsNothing: far past the saturation knee the watermark
// holds the batches in flight at their peak, so once that peak has been
// reached every batch's DAG is built from recycled commands and every
// CHI message is a recycled one. (Below the knee the peaks come later: at
// load 24 the message free-list still grows by one between cycles 60 000
// and 70 000.)
func TestSteadyStateMintsNothing(t *testing.T) {
	spec := quickSpec(t)
	spec.Loads = []float64{400}
	sys, err := Build(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	counts := func() (cmds, msgs, reused uint64) {
		net := reflect.ValueOf(sys.Net).Elem()
		return sys.Orch.dag.minted, net.FieldByName("msgsMinted").Uint(), sys.Orch.dag.reused
	}
	sys.Net.Run(10000)
	cmds, msgs, reused := counts()
	sys.Net.Run(40000)
	cmdsAfter, msgsAfter, reusedAfter := counts()
	if cmdsAfter != cmds || msgsAfter != msgs {
		t.Errorf("cycles 10000-50000 minted %d commands and %d messages (%d and %d before)",
			cmdsAfter-cmds, msgsAfter-msgs, cmds, msgs)
	}
	if reusedAfter == reused {
		t.Error("no command was reused: batches did not complete")
	}
}
