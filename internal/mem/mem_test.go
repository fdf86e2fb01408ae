package mem

import (
	"testing"

	"chipletnoc/internal/chi"
	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
)

// requester issues CHI reads/writes to a controller and collects
// completions.
type requester struct {
	name    string
	net     *noc.Network
	iface   *noc.NodeInterface
	tracker *chi.Tracker
	pending []*chi.Message
	done    []*chi.Message
	doneAt  map[uint32]sim.Cycle
	sentAt  map[uint32]sim.Cycle
	dst     noc.NodeID
	wdata   []*noc.Flit
}

func newRequester(t testing.TB, net *noc.Network, st *noc.CrossStation, name string) *requester {
	t.Helper()
	r := &requester{
		name: name, net: net,
		tracker: chi.NewTracker(32),
		doneAt:  make(map[uint32]sim.Cycle),
		sentAt:  make(map[uint32]sim.Cycle),
	}
	node := net.NewNode(name)
	r.iface = net.Attach(node, st)
	net.AddDevice(r)
	return r
}

func (r *requester) Name() string     { return r.name }
func (r *requester) Node() noc.NodeID { return r.iface.Node() }

func (r *requester) issue(op chi.Opcode, addr uint64, dst noc.NodeID) {
	m := &chi.Message{Op: op, Addr: addr, Requester: r.Node()}
	r.pending = append(r.pending, m)
	r.dst = dst
}

func (r *requester) Tick(now sim.Cycle) {
	for len(r.pending) > 0 {
		m := r.pending[0]
		if r.tracker.Full() {
			break
		}
		if !r.tracker.Open(m) {
			break
		}
		if !r.iface.Send(m.NewFlit(r.net, r.Node(), r.dst)) {
			r.tracker.Complete(m.TxnID)
			break
		}
		r.sentAt[m.TxnID] = now
		r.pending = r.pending[1:]
	}
	for {
		f := r.iface.Recv()
		if f == nil {
			break
		}
		rsp := chi.MsgOf(f)
		if rsp.Op == chi.DBIDResp {
			// Write grant: send the data burst.
			req := r.tracker.Lookup(rsp.TxnID)
			for b := 0; b < req.Beats(); b++ {
				d := &chi.Message{TxnID: req.TxnID, Op: chi.NonCopyBackWrData, Addr: req.Addr, Requester: r.Node(), Size: req.Size}
				r.wdata = append(r.wdata, d.NewFlit(r.net, r.Node(), f.Src))
			}
			continue
		}
		if req := r.tracker.Complete(rsp.TxnID); req != nil {
			r.done = append(r.done, req)
			r.doneAt[rsp.TxnID] = now
		}
	}
	for len(r.wdata) > 0 && r.iface.Send(r.wdata[0]) {
		r.wdata = r.wdata[1:]
	}
}

func buildMemRig(t testing.TB, cfg Config) (*noc.Network, *requester, *Controller) {
	t.Helper()
	net := noc.NewNetwork("t")
	r := net.AddRing(12, true)
	req := newRequester(t, net, r.AddStation(0), "core")
	ctl := New(net, "ddr0", cfg, r.AddStation(6))
	net.MustFinalize()
	return net, req, ctl
}

func run(net *noc.Network, n int) {
	for i := 0; i < n; i++ {
		net.Tick(sim.Cycle(net.Ticks()))
	}
}

func TestReadCompletes(t *testing.T) {
	net, req, ctl := buildMemRig(t, DDR4Channel())
	req.issue(chi.ReadNoSnp, 0x1000, ctl.Node())
	run(net, 300)
	if len(req.done) != 1 {
		t.Fatalf("completions: %d", len(req.done))
	}
	if ctl.Reads != 1 || ctl.Writes != 0 {
		t.Fatalf("controller counted %d reads, %d writes", ctl.Reads, ctl.Writes)
	}
	if ctl.BytesServed != chi.LineSize {
		t.Fatalf("BytesServed = %d", ctl.BytesServed)
	}
}

func TestWriteCompletes(t *testing.T) {
	net, req, ctl := buildMemRig(t, DDR4Channel())
	req.issue(chi.WriteNoSnp, 0x2000, ctl.Node())
	run(net, 300)
	if len(req.done) != 1 {
		t.Fatalf("completions: %d", len(req.done))
	}
	if ctl.Writes != 1 {
		t.Fatalf("Writes = %d", ctl.Writes)
	}
}

func TestAccessLatencyDominatesUnloaded(t *testing.T) {
	cfg := DDR4Channel()
	net, req, ctl := buildMemRig(t, cfg)
	req.issue(chi.ReadNoSnp, 0x40, ctl.Node())
	run(net, 400)
	if len(req.done) != 1 {
		t.Fatal("no completion")
	}
	var txn uint32
	for id := range req.doneAt {
		txn = id
	}
	rt := uint64(req.doneAt[txn] - req.sentAt[txn])
	min := uint64(cfg.AccessCycles)
	max := uint64(cfg.AccessCycles + 40)
	if rt < min || rt > max {
		t.Fatalf("round trip %d cycles, want in [%d,%d]", rt, min, max)
	}
}

func TestBandwidthCapThrottles(t *testing.T) {
	// Issue 64 reads; a DDR channel grants one line every ~7.5 cycles,
	// so service takes >= 64*64/8.5 cycles regardless of queueing.
	cfg := DDR4Channel()
	net, req, ctl := buildMemRig(t, cfg)
	for i := 0; i < 64; i++ {
		req.issue(chi.ReadNoSnp, uint64(i*64), ctl.Node())
	}
	start := net.Ticks()
	for net.Ticks()-start < 5000 && len(req.done) < 64 {
		run(net, 10)
	}
	if len(req.done) != 64 {
		t.Fatalf("completed %d/64", len(req.done))
	}
	elapsed := net.Ticks() - start
	floor := uint64(float64(64*chi.LineSize) / cfg.BytesPerCycle)
	if elapsed < floor {
		t.Fatalf("finished in %d cycles, bandwidth floor is %d", elapsed, floor)
	}
}

func TestHBMIsFasterThanDDR(t *testing.T) {
	serve := func(cfg Config) uint64 {
		net, req, ctl := buildMemRig(t, cfg)
		for i := 0; i < 64; i++ {
			req.issue(chi.ReadNoSnp, uint64(i*64), ctl.Node())
		}
		start := net.Ticks()
		for net.Ticks()-start < 10000 && len(req.done) < 64 {
			run(net, 10)
		}
		if len(req.done) != 64 {
			t.Fatalf("completed %d/64", len(req.done))
		}
		return net.Ticks() - start
	}
	ddr := serve(DDR4Channel())
	hbm := serve(HBMStack())
	if hbm >= ddr {
		t.Fatalf("HBM (%d cycles) must beat DDR (%d cycles)", hbm, ddr)
	}
}

func TestControllerPendingAccounting(t *testing.T) {
	net, req, ctl := buildMemRig(t, DDR4Channel())
	for i := 0; i < 8; i++ {
		req.issue(chi.ReadNoSnp, uint64(i*64), ctl.Node())
	}
	run(net, 30)
	if ctl.Pending() == 0 {
		t.Fatal("requests should be in flight inside the controller")
	}
	run(net, 2000)
	if ctl.Pending() != 0 {
		t.Fatalf("Pending = %d after drain", ctl.Pending())
	}
}
