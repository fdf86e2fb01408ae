package noc

import (
	"fmt"
	"strings"
	"testing"
)

// TestWiringFaultsFailFinalize: every badly wired network, built by hand
// with the build calls alone, reaches Finalize without a panic and is
// refused there with an error naming its first fault. MustFinalize panics
// with the same error, and the network never ticks.
func TestWiringFaultsFailFinalize(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(net *Network)
		want  string
	}{
		{"ring-under-2-positions", func(net *Network) {
			net.AddRing(1, true)
		}, "ring 0 needs at least 2 positions, has 1"},
		{"station-past-ring", func(net *Network) {
			newSource(t, net, net.AddRing(8, true).AddStation(8), "a")
		}, "station position 8 outside ring 0 of 8 positions"},
		{"station-before-ring", func(net *Network) {
			newSource(t, net, net.AddRing(8, true).AddStation(-1), "a")
		}, "station position -1 outside ring 0"},
		{"third-interface", func(net *Network) {
			st := net.AddRing(8, true).AddStation(0)
			for _, name := range []string{"a", "b", "c"} {
				newSource(t, net, st, name)
			}
		}, "station at ring 0 position 0 already has two interfaces"},
		{"node-attached-twice", func(net *Network) {
			r := net.AddRing(8, true)
			node := net.NewNode("a")
			net.Attach(node, r.AddStation(0))
			net.Attach(node, r.AddStation(4))
		}, `node "a" has two stations on ring 0`},
		{"node-on-128-rings", func(net *Network) {
			node := net.NewNode("wide")
			for i := 0; i < 128; i++ {
				net.Attach(node, net.AddRing(2, false).AddStation(0))
			}
		}, `node "wide" attached to more than 127 rings`},
		{"rbrg-l1-one-station", func(net *Network) {
			NewRBRGL1(net, "b", DefaultRBRGL1Config(), net.AddRing(8, true).AddStation(0))
		}, `RBRG-L1 "b" needs at least 2 stations, has 1`},
		{"rbrg-l2-legs-share-ring", func(net *Network) {
			r := net.AddRing(8, true)
			NewRBRGL2(net, "b", DefaultRBRGL2Config(), r.AddStation(0), r.AddStation(4))
		}, `node "b" has two stations on ring 0`},
		{"rbrg-l2-one-station-twice", func(net *Network) {
			st := net.AddRing(8, true).AddStation(0)
			NewRBRGL2(net, "b", DefaultRBRGL2Config(), st, st)
		}, `node "b" has two stations on ring 0`},
		{"empty-node-name", func(net *Network) {
			newSource(t, net, net.AddRing(8, true).AddStation(0), "")
		}, "node 0 needs a name"},
		{"overlong-node-name", func(net *Network) {
			newSource(t, net, net.AddRing(8, true).AddStation(0), strings.Repeat("d", MaxNameBytes+1))
		}, fmt.Sprintf("node name of %d bytes exceeds the limit of %d", MaxNameBytes+1, MaxNameBytes)},
		{"no-ring", func(net *Network) {}, "needs at least one ring"},
		{"first-fault-wins", func(net *Network) {
			r := net.AddRing(1, true)
			r.AddStation(5)
			net.NewNode("")
		}, "ring 0 needs at least 2 positions"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := NewNetwork("t")
			tc.build(net)
			err := net.Finalize()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Finalize: %v, want an error naming %q", err, tc.want)
			}
			if again := net.Finalize(); again == nil || again.Error() != err.Error() {
				t.Errorf("second Finalize: %v, want %v again", again, err)
			}
			func() {
				defer func() {
					if got := recover(); got == nil || !strings.Contains(fmt.Sprint(got), tc.want) {
						t.Errorf("MustFinalize: panic %v, want the fault", got)
					}
				}()
				net.MustFinalize()
			}()
			mustPanic(t, func() { net.Tick(0) })
		})
	}
}
