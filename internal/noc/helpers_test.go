package noc

import (
	"testing"

	"chipletnoc/internal/sim"
)

// sink is a test endpoint that drains its eject queue at a configurable
// rate and remembers what it received.
type sink struct {
	name     string
	iface    *NodeInterface
	drainPer int // flits drained per cycle; 0 = never drain
	// Nothing is drained in [pauseFrom, pauseUntil): the eject queue fills,
	// arrivals deflect and the ring behind them saturates.
	pauseFrom, pauseUntil sim.Cycle
	got                   []*Flit
	// discard releases drained flits instead of remembering them, for
	// tests that snapshot the network often and want the snapshots small.
	discard bool
}

func newSink(t testing.TB, net *Network, st *CrossStation, name string, drainPer int) *sink {
	t.Helper()
	s := &sink{name: name, drainPer: drainPer}
	node := net.NewNode(name)
	s.iface = net.Attach(node, st)
	net.AddDevice(s)
	return s
}

func (s *sink) Name() string { return s.name }
func (s *sink) Node() NodeID { return s.iface.Node() }

// IdleUntil implements IdleUntiler: nothing ejected (or never draining)
// means Tick does nothing until an arrival wakes the sink; what is ejected
// during a pause waits for its end.
func (s *sink) IdleUntil(now sim.Cycle) sim.Cycle {
	if s.drainPer == 0 || s.iface.EjectLen() == 0 {
		return Never
	}
	if s.paused(now) {
		return s.pauseUntil
	}
	return now
}

func (s *sink) paused(now sim.Cycle) bool { return s.pauseFrom <= now && now < s.pauseUntil }

func (s *sink) Tick(now sim.Cycle) {
	if s.paused(now) {
		return
	}
	for i := 0; i < s.drainPer; i++ {
		f := s.iface.Recv()
		if f == nil {
			return
		}
		if s.discard {
			s.iface.station.ring.net.ReleaseFlit(f)
			continue
		}
		s.got = append(s.got, f)
	}
}

// source is a test endpoint that emits a fixed list of flits as fast as
// the inject queue accepts them — each no earlier than its release cycle,
// so a test can script bursts with idle gaps between them — and drains
// anything ejected to it. With retries armed it also behaves like a
// requester's CHI retrier: at every deadline one more flit for retryDst
// joins the list.
type source struct {
	name    string
	iface   *NodeInterface
	pending []*Flit
	release []sim.Cycle // release[i] gates pending[i]
	got     []*Flit

	retries              int // deadlines still to come
	deadline, retryEvery sim.Cycle
	retryDst             NodeID
	// blockedTimed counts the IdleUntil answers that put the source to sleep
	// on a refused Send with a deadline to sleep towards (diagnostics).
	blockedTimed int
}

func newSource(t testing.TB, net *Network, st *CrossStation, name string) *source {
	t.Helper()
	s := &source{name: name}
	node := net.NewNode(name)
	s.iface = net.Attach(node, st)
	net.AddDevice(s)
	return s
}

func (s *source) Name() string  { return s.name }
func (s *source) Node() NodeID  { return s.iface.Node() }
func (s *source) queue(f *Flit) { s.queueAt(f, 0) }

// queueAt queues f for sending at cycle at or later, behind everything
// queued before it. The work arrives outside the fabric, so the source
// is woken by hand (the contract Engine.enqueue follows in production).
func (s *source) queueAt(f *Flit, at sim.Cycle) {
	s.iface.Wake()
	s.pending = append(s.pending, f)
	s.release = append(s.release, at)
}

// IdleUntil implements IdleUntiler: idle with nothing to receive and
// nothing it could send — the head not yet released, or the inject queue
// full, in which case the Send would be refused and the pop that makes
// room wakes the source. The head's release cycle and the next retry
// deadline are the timers.
func (s *source) IdleUntil(now sim.Cycle) sim.Cycle {
	if s.iface.EjectLen() > 0 {
		return now
	}
	wake := Never
	if s.retries > 0 {
		wake = s.deadline
	}
	if len(s.pending) > 0 {
		switch {
		case s.release[0] > now:
			if s.release[0] < wake {
				wake = s.release[0]
			}
		case s.iface.InjectSpace() > 0:
			return now
		case wake > now && wake != Never:
			s.blockedTimed++
		}
	}
	if wake < now {
		return now
	}
	return wake
}

func (s *source) Tick(now sim.Cycle) {
	if s.retries > 0 && s.deadline <= now {
		s.retries--
		s.deadline += s.retryEvery
		s.queue(s.iface.station.ring.net.NewFlit(s.Node(), s.retryDst, KindData, LineBytes))
	}
	for len(s.pending) > 0 && s.release[0] <= now && s.iface.Send(s.pending[0]) {
		s.pending = s.pending[1:]
		s.release = s.release[1:]
	}
	for {
		f := s.iface.Recv()
		if f == nil {
			break
		}
		s.got = append(s.got, f)
	}
}

// runCycles ticks the network n more times, continuing simulated time
// monotonically across calls.
func runCycles(net *Network, n int) {
	for i := 0; i < n; i++ {
		net.Tick(sim.Cycle(net.ticks))
	}
}
