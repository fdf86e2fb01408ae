package noc_test

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"chipletnoc/internal/noc"
	"chipletnoc/internal/noctest"
	"chipletnoc/internal/sim"
)

// Field coverage of the state walks (DESIGN.md §8 "State walk"). Every
// struct a walk covers is listed here with the fields it deliberately
// does not serialize, each with the reason. The test reflects over the
// struct types — reflection is test-only; the production walks are
// explicit because the bytes are untrusted — and for every other field
// perturbs a live instance in every catalogue system, stopped at each of
// its At cycles, and requires the checkpoint bytes to move (or the walk
// to refuse the perturbed value). A field added to one of these structs
// therefore fails here until it gets one line in the walk or one line in
// this table.
var notSerialized = map[string]map[string]string{
	"noc.Network": {
		"name": "build shape: matched, not restored", "rings": "build shape: count matched",
		"devices": "build shape: count and names matched", "nodes": "build shape: count matched",
		"flitIDShift": "derived from the node count at Finalize", "finalized": "build state",
		"ringDist": "derived: route tables, rebuilt from topology + failed set",
		"ringNext": "derived: route tables", "bridges": "derived: bridge inventory", "routeTbl": "derived: route tables",
		"routeCands": "derived: route tables", "topoHash": "derived: cached TopoHash of the build",
		"freeFlits": "engine scratch: free list, reset on load",
		"snap":      "engine scratch: a walk's identity pools, empty between walks", "lastCheckpoint": "engine scratch: sizes the next checkpoint's buffer",
		"freeMsgs":   "host-side: message free list, emptied on load",
		"msgsMinted": "diagnostic: message free-list misses", "msgsReused": "diagnostic: message free-list hits",
		"devs": "derived: device gates", "kinds": "diagnostic: device ticks by Go type", "awake": "derived: one bit per device, all set on load",
		"polled": "derived: which devices never clear their awake bit, fixed by the device list",
		"cal":    "derived: timed-wake calendar, emptied on load", "forceAwake": "test-only engine switch",
		"noted":    "diagnostic: the engine counters already published to the process-wide totals",
		"sweeping": "engine scratch: true only inside a ring phase", "sweepRing": "engine scratch: ring phase progress",
		"sweepPos":  "engine scratch: ring phase progress",
		"EpochsRun": "always 0", "BarrierSyncs": "always 0", "SkippedCycles": "diagnostic",
		"RingTicksSkipped": "diagnostic", "StationTicksSkipped": "diagnostic", "DeviceTicksSkipped": "diagnostic",
		"Tracer": "hook", "metrics": "hook", "OnDeliver": "hook", "latency": "hook",
	},
	"noc.Ring": {
		"id": "wiring", "net": "wiring", "positions": "build shape: matched", "full": "build shape: matched",
		"now":    "derived: re-synced from Network.now on load",
		"queued": "derived: recounted on load", "turned": "derived: re-synced from Network.ticks on load",
		"stations": "build shape: count matched", "stationAt": "derived: dense station index",
		"stationSet": "derived: visit set, re-classified from every station on load",
	},
	"noc.loop": {
		"head":     "rotation is virtual: slots travel in logical order and load at head 0",
		"occ":      "derived: recounted on load",
		"free":     "derived: visit set, one bit per empty slot, rebuilt from the slots on load",
		"arrivals": "derived: visit set, arrival calendar, rebuilt from the slots on load",
	},
	"noc.slot": {"dst": "derived: mirrors flit.localDst"},
	"noc.CrossStation": {
		"ring": "wiring", "pos": "build shape: matched", "ifaces": "wiring: presence matched",
		"want":      "derived: head summary, recomputed on load",
		"lastVisit": "derived: the defeats it stands for are settled into injectFails/starved before a save; set to the loaded tick on load",
	},
	// Every queue of the fabric, whatever it holds (typeName drops the
	// type argument). What a walk writes is the length and the live
	// entries; a field that is a FIFO is perturbed through its length.
	"sim.FIFO": {
		"head": "entries travel in FIFO order and load at head 0",
		"buf":  "storage: the live entries travel in FIFO order, the rest are zero; a fixed capacity is matched as build shape",
	},
	// Every transaction table (typeName drops the type argument). What a
	// walk writes is the entries in key order; a field that is a table is
	// perturbed through its occupancy bits.
	"sim.Table": {
		"slots":  "storage: the entries travel in key order, the empty slots not at all",
		"n":      "derived: the number of occupancy bits set",
		"keys":   "walk scratch: the sort buffer a save reuses, stale between walks",
		"walked": "walk scratch: the key/value pair a walk hands out, zero between walks",
	},
	"noc.NodeInterface": {
		"node": "wiring", "station": "wiring", "index": "wiring", "nodeSlot": "wiring",
		"wake": "derived: the owning device's awake word", "wakeBit": "derived: the owning device's awake bit",
	},
	"noc.RBRGL1": {
		"name": "wiring", "net": "wiring", "node": "wiring", "cfg": "config", "halves": "build shape: count matched",
	},
	"noc.l1half":        {"iface": "wiring"},
	"noc.RBRGL2":        {"name": "wiring", "net": "wiring", "node": "wiring", "cfg": "config"},
	"noc.l2half":        {"iface": "wiring"},
	"noc.pipeFlit":      {},
	"noc.credPulse":     {},
	"noc.throttleState": {"cfg": "config"},
	"noc.Flit": {
		"freed": "free-list guard: a live flit is never freed",
		"mark":  "walk scratch: the identity mark, 0 between walks",
	},
	"chi.Message": {
		"freed": "free-list guard: a live message is never freed",
		"mark":  "walk scratch: the identity mark, 0 between walks",
	},
	"chi.Tracker":  {},
	"chi.Retrier":  {"cfg": "config", "watched": "derived: index of order, rebuilt on load"},
	"chi.armedTxn": {},
	"mem.Controller": {
		"name": "wiring", "net": "wiring", "iface": "wiring", "cfg": "config",
	},
	"mem.Channel": {
		"rate": "config", "depth": "config", "latency": "config",
		"filled": "derived: the refill cursor; a save writes the bucket settled through the clock, a load sets it from the restored clock",
	},
	"mem.timed":         {},
	"traffic.Requester": {"name": "wiring", "net": "wiring", "iface": "wiring", "cfg": "config"},
	"traffic.SeqStream": {"stride": "config", "wrap": "config", "base": "config"},
	"sim.RNG":           {},
	"stats.Histogram":   {},
	"coherence.Directory": {
		"name": "wiring", "net": "wiring", "iface": "wiring", "LookupCycles": "config",
		"dataSlice": "wiring", "memory": "wiring",
	},
	"coherence.line": {},
	"coherence.job":  {},
	"coherence.pump": {},
	"coherence.DataSlice": {
		"name": "wiring", "net": "wiring", "iface": "wiring", "AccessCycles": "config",
	},
	"coherence.CoreAgent": {
		"name": "wiring", "net": "wiring", "iface": "wiring", "SnoopCycles": "config",
		"homeOf": "wiring", "OnComplete": "hook",
	},
	"fault.Injector": {
		"name": "wiring", "net": "wiring", "events": "build shape: the schedule, count matched",
	},
	"fault.repair": {},

	"serving.Engine": {"name": "wiring", "die": "wiring", "net": "wiring", "iface": "wiring", "memNodes": "wiring"},
	"serving.Orchestrator": {
		"name": "wiring", "net": "wiring", "engines": "wiring", "spec": "build shape: matched",
		"dag":      "host-side: command and batch free-lists and their counters, empty on load",
		"lastTick": "derived: the stall count travels settled through the clock, and a load sets it to the clock",
	},
	"serving.arrivalProcess": {}, "serving.batch": {}, "serving.request": {},
	"serving.command":      {"b": "derived: the batch whose DAG holds it", "at": "derived: its index in that DAG"},
	"stats.QuantileSketch": {"order": "query scratch: the sorted bucket indices"},
}

// typeName is the notSerialized key of t: its printed name without the
// type arguments, so the one generic queue has one entry.
func typeName(t reflect.Type) string {
	name, _, _ := strings.Cut(t.String(), "[")
	return name
}

// settable lifts reflect's ban on unexported fields: v must be
// addressable, which everything reached through a pointer is.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// visit identifies a pointer already followed (a struct and its first
// field share an address, so the type is part of the identity).
type visit struct {
	at  unsafe.Pointer
	typ reflect.Type
}

// collect gathers the addressable instances of every struct type named
// in notSerialized reachable from v, in a deterministic order (map keys
// sorted by their printed form).
func collect(v reflect.Value, seen map[visit]bool, out map[string][]reflect.Value) {
	switch v.Kind() {
	case reflect.Ptr:
		at := visit{v.UnsafePointer(), v.Type()}
		if v.IsNil() || seen[at] {
			return
		}
		seen[at] = true
		collect(v.Elem(), seen, out)
	case reflect.Interface:
		if !v.IsNil() {
			collect(v.Elem(), seen, out)
		}
	case reflect.Struct:
		name := typeName(v.Type())
		if _, ok := notSerialized[name]; ok && v.CanAddr() {
			out[name] = append(out[name], v)
		}
		if name == "sim.FIFO" { // only the live entries are state
			buf, head := v.FieldByName("buf"), int(v.FieldByName("head").Int())
			for i := 0; i < int(v.FieldByName("n").Int()); i++ {
				collect(buf.Index((head+i)%buf.Len()), seen, out)
			}
			return
		}
		for i := 0; i < v.NumField(); i++ {
			collect(v.Field(i), seen, out)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			collect(v.Index(i), seen, out)
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, k := range keys {
			collect(v.MapIndex(k), seen, out)
		}
	}
}

// fresh returns a new value of type t to store where a walk will look: a
// pointer to a zero struct for pointer types, else the zero value.
func fresh(t reflect.Type) reflect.Value {
	if t.Kind() == reflect.Ptr {
		return reflect.New(t.Elem())
	}
	return reflect.Zero(t)
}

// perturbations returns the ways to change field value v, most direct
// first; each returns its undo. Scalars step by one, pointers and
// interfaces swap nil for a fresh object, slices and maps gain an
// element or, failing that, have their first element perturbed, structs
// and arrays are perturbed through their first serialized member.
func perturbations(v reflect.Value) []func() (undo func()) {
	v = settable(v)
	set := func(to reflect.Value) func() func() {
		return func() func() {
			old := reflect.New(v.Type()).Elem()
			old.Set(v)
			v.Set(to)
			return func() { v.Set(old) }
		}
	}
	first := func(elem reflect.Value) []func() func() {
		if elem.Kind() == reflect.Ptr {
			if elem.IsNil() {
				return nil
			}
			elem = elem.Elem()
		}
		return perturbations(elem)
	}
	switch v.Kind() {
	case reflect.Bool:
		return []func() func(){set(reflect.ValueOf(!v.Bool()).Convert(v.Type()))}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return []func() func(){set(reflect.ValueOf(v.Int() + 1).Convert(v.Type()))}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return []func() func(){set(reflect.ValueOf(v.Uint() + 1).Convert(v.Type()))}
	case reflect.Float32, reflect.Float64:
		return []func() func(){set(reflect.ValueOf(v.Float() + 1).Convert(v.Type()))}
	case reflect.String:
		return []func() func(){set(reflect.ValueOf(v.String() + "x").Convert(v.Type()))}
	case reflect.Ptr:
		if v.IsNil() {
			return []func() func(){set(fresh(v.Type()))}
		}
		return []func() func(){set(reflect.Zero(v.Type()))}
	case reflect.Interface:
		if v.IsNil() {
			return []func() func(){set(reflect.ValueOf(new(int)))}
		}
		return []func() func(){set(reflect.Zero(v.Type()))}
	case reflect.Slice:
		ways := []func() func(){set(reflect.Append(v, fresh(v.Type().Elem())))}
		if v.Len() > 0 {
			ways = append(ways, first(v.Index(0))...)
		}
		return ways
	case reflect.Map:
		key := reflect.New(v.Type().Key()).Elem()
		if ways := perturbations(key); len(ways) > 0 {
			ways[0]() // not the zero key; if a live entry has it, the caller notices the damage and rebuilds
		}
		return []func() func(){func() func() {
			if v.IsNil() {
				v.Set(reflect.MakeMap(v.Type()))
			}
			v.SetMapIndex(key, fresh(v.Type().Elem()))
			return func() { v.SetMapIndex(key, reflect.Value{}) }
		}}
	case reflect.Array:
		return first(v.Index(0))
	case reflect.Struct:
		skip := notSerialized[typeName(v.Type())]
		for i := 0; i < v.NumField(); i++ {
			if _, skipped := skip[v.Type().Field(i).Name]; !skipped {
				return perturbations(v.Field(i))
			}
		}
	}
	return nil
}

// TestStateWalkFieldCoverage fails when a struct the state walks cover
// has a field that is neither serialized nor listed in notSerialized.
// Mutation-checked by hand: a dummy uint64 added to noc.NodeInterface
// fails it.
func TestStateWalkFieldCoverage(t *testing.T) {
	moved := map[string]bool{} // "type.field" -> some perturbation in some system moved the bytes
	tried := map[string]bool{} // types with a live instance in some system
	for _, sys := range noctest.Catalogue {
		for _, at := range sys.At {
			coverFields(t, sys, at, moved, tried)
		}
	}
	for key, ok := range moved {
		if !ok {
			t.Errorf("%s: no perturbation of a live instance moves the checkpoint bytes, and notSerialized "+
				"does not list it — add it to the struct's state walk or to the table with a reason", key)
		}
	}
	for name := range notSerialized {
		if !tried[name] {
			t.Errorf("%s: no live instance in any catalogue system — the coverage check did not run for it", name)
		}
	}
}

// coverFields perturbs every field of every covered struct that no
// earlier system has moved yet, on sys stopped at cycle at.
func coverFields(t *testing.T, sys noctest.System, at int, moved, tried map[string]bool) {
	var net *noc.Network
	var instances map[string][]reflect.Value
	var baseline string
	encode := func() (bytes string, refused bool) {
		defer func() {
			if recover() != nil {
				refused = true // the walk dereferenced the perturbed field
			}
		}()
		e := sim.NewEncoder()
		err := net.SnapState(sim.Saving(e))
		return string(e.Data()), err != nil
	}
	rebuild := func() {
		net = sys.Build()
		net.Run(at)
		instances = map[string][]reflect.Value{}
		collect(reflect.ValueOf(net), map[visit]bool{}, instances)
		var refused bool
		if baseline, refused = encode(); refused {
			t.Fatal("baseline checkpoint refused")
		}
	}
	rebuild()
	for name, skip := range notSerialized {
		if len(instances[name]) == 0 {
			continue
		}
		tried[name] = true
		typ := instances[name][0].Type()
		for field := range skip {
			if _, ok := typ.FieldByName(field); !ok {
				t.Errorf("%s: notSerialized lists %q, which is not a field", name, field)
			}
		}
		for i := 0; i < typ.NumField(); i++ {
			key := name + "." + typ.Field(i).Name
			if _, skipped := skip[typ.Field(i).Name]; skipped || moved[key] {
				continue
			}
			moved[key] = false
			for n := 0; n < len(instances[name]) && n < 64 && !moved[key]; n++ {
				for _, way := range perturbations(instances[name][n].Field(i)) {
					undo := way()
					bytes, refused := encode()
					undo()
					moved[key] = refused || bytes != baseline
					// Saving syncs ring rotation to the tick count (and a
					// map perturbation may have replaced a live key), so
					// the undo can leave the system changed: start over
					// on a new build, whose instance order is the same.
					if again, _ := encode(); again != baseline {
						rebuild()
						break
					}
					if moved[key] {
						break
					}
				}
			}
		}
	}
}
