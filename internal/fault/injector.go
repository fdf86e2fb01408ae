package fault

import (
	"fmt"
	"sort"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/sim"
	"chipletnoc/internal/trace"
)

// Injector replays a Schedule against a finalized Network. It is a
// noc.Device ticked after ring and bridge logic each cycle, so a fault
// scheduled at cycle N perturbs state the simulation observes from the
// following station cycle on, keeping the whole run deterministic.
type Injector struct {
	name string
	net  *noc.Network
	rng  *sim.RNG

	// events sorted by At (ties in schedule order); next indexes the
	// first not-yet-applied one.
	events []Event
	next   int
	// repairs are pending bridge restorations, sorted by due cycle
	// (ties in schedule order).
	repairs []repair

	// statistics
	FaultsApplied  uint64 // events that took effect
	FaultsSkipped  uint64 // drop/corrupt events with no live victim
	RepairsApplied uint64
}

// repair is a deferred RepairBridge from a transient kill-bridge event.
type repair struct {
	at   uint64
	node noc.NodeID
	seq  int
}

// injectorSalt derives the injector's private RNG stream from the run's
// master seed, so adding fault injection never perturbs the traffic
// generators' streams.
const injectorSalt = 0xfa017

// NewInjector binds a schedule to a network: bridge names are resolved
// (unknown names are an error), the watchdog is armed when the schedule
// asks for one, and the injector registers itself as a device. The seed
// should be the run's master seed; victim selection for drop/corrupt
// events derives from it and the schedule's own Seed.
func NewInjector(net *noc.Network, s *Schedule, seed uint64) (*Injector, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{
		name: "fault-injector",
		net:  net,
		rng:  sim.NewRNG(seed ^ s.Seed).Derive(injectorSalt),
	}
	inj.events = make([]Event, len(s.Events))
	copy(inj.events, s.Events)
	sort.SliceStable(inj.events, func(i, j int) bool { return inj.events[i].At < inj.events[j].At })
	// Resolve bridge names up front so a bad schedule fails at build
	// time, not mid-run.
	for i := range inj.events {
		e := &inj.events[i]
		if e.Kind != KillBridge {
			continue
		}
		if _, ok := net.NodeByName(e.Bridge); !ok {
			return nil, fmt.Errorf("fault: kill-bridge: no node named %q", e.Bridge)
		}
	}
	if s.WatchdogCycles > 0 {
		net.SetWatchdog(s.WatchdogCycles, 0)
	}
	net.AddDevice(inj)
	return inj, nil
}

// Name implements noc.Device.
func (inj *Injector) Name() string { return inj.name }

// IdleUntil implements noc.IdleUntiler: the first cycle >= now at which
// Tick does real work — the earlier of the next unapplied schedule event
// and the next pending repair. Between due cycles Tick is a pure no-op
// (both queues are sorted and head-gated on the current cycle).
func (inj *Injector) IdleUntil(now sim.Cycle) sim.Cycle {
	const farFuture = ^uint64(0)
	next := farFuture
	if inj.next < len(inj.events) {
		next = inj.events[inj.next].At
	}
	if len(inj.repairs) > 0 && inj.repairs[0].at < next {
		next = inj.repairs[0].at
	}
	if next < uint64(now) {
		return now
	}
	return sim.Cycle(next)
}

// Pending returns how many schedule events have not fired yet.
func (inj *Injector) Pending() int { return len(inj.events) - inj.next + len(inj.repairs) }

// Tick implements noc.Device: apply due repairs, then due events.
func (inj *Injector) Tick(now sim.Cycle) {
	for len(inj.repairs) > 0 && inj.repairs[0].at <= uint64(now) {
		r := inj.repairs[0]
		inj.repairs = inj.repairs[1:]
		if err := inj.net.RepairBridge(r.node); err == nil {
			inj.RepairsApplied++
		}
	}
	for inj.next < len(inj.events) && inj.events[inj.next].At <= uint64(now) {
		inj.apply(&inj.events[inj.next], inj.next)
		inj.next++
	}
}

// SnapState implements noc.StateSnapshotter. The schedule is build shape
// — a checkpoint restores into an injector built from the same one — so
// what travels is the cursor into it, the victim-selection RNG, the
// repairs still owed and the counters. A loaded repair's node must be a
// bridge.
func (inj *Injector) SnapState(s *noc.Snap) {
	c := s.Codec
	c.Match(len(inj.events), "fault event count")
	sim.Int(c, &inj.next)
	if inj.next < 0 || inj.next > len(inj.events) {
		c.Fail("fault event cursor %d out of range (%d events)", inj.next, len(inj.events))
	}
	inj.rng.SnapState(c)
	sim.Slice(c, &inj.repairs, len(inj.events))
	for i := range inj.repairs {
		r := &inj.repairs[i]
		c.U64(&r.at)
		s.Node(&r.node, noc.Bridge, "repair node")
		sim.Int(c, &r.seq)
	}
	c.U64(&inj.FaultsApplied)
	c.U64(&inj.FaultsSkipped)
	c.U64(&inj.RepairsApplied)
}

// apply executes one due event.
func (inj *Injector) apply(e *Event, seq int) {
	switch e.Kind {
	case KillBridge:
		node, ok := inj.net.NodeByName(e.Bridge)
		if !ok {
			return // validated at construction; topology cannot shrink
		}
		if err := inj.net.FailBridge(node); err != nil {
			inj.net.Trace(trace.Fault, 0, inj.name, "kill-bridge rejected: "+err.Error())
			return
		}
		inj.FaultsApplied++
		if e.RepairAt != 0 {
			inj.repairs = append(inj.repairs, repair{at: e.RepairAt, node: node, seq: seq})
			sort.SliceStable(inj.repairs, func(i, j int) bool {
				if inj.repairs[i].at != inj.repairs[j].at {
					return inj.repairs[i].at < inj.repairs[j].at
				}
				return inj.repairs[i].seq < inj.repairs[j].seq
			})
		}
	case StallStationKind:
		if err := inj.net.StallStation(noc.RingID(e.Ring), e.Position, e.Cycles); err != nil {
			inj.net.Trace(trace.Fault, 0, inj.name, "stall rejected: "+err.Error())
			return
		}
		inj.FaultsApplied++
	case DropFlit:
		live := inj.net.LiveSlotCount()
		if live == 0 || !inj.net.DropLiveFlit(inj.rng.Intn(live)) {
			inj.FaultsSkipped++
			return
		}
		inj.FaultsApplied++
	case CorruptFlit:
		live := inj.net.LiveSlotCount()
		if live == 0 || !inj.net.CorruptLiveFlit(inj.rng.Intn(live)) {
			inj.FaultsSkipped++
			return
		}
		inj.FaultsApplied++
	}
}
