package experiments

import (
	"fmt"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"chipletnoc/internal/workloads"
)

// lastJobs drains the timing log and returns the job names of its last
// entry, which must belong to experiment.
func lastJobs(t *testing.T, experiment string) []string {
	t.Helper()
	entries := DrainTimings()
	if len(entries) == 0 || entries[len(entries)-1].Experiment != experiment {
		t.Fatalf("timing log does not end with a %q entry: %+v", experiment, entries)
	}
	var names []string
	for _, j := range entries[len(entries)-1].Jobs {
		names = append(names, j.Name)
	}
	return names
}

// TestRunDistinct pins the helper's contract: the first index of each key
// runs, once, under its own name; every index gets its key's result, in
// index order, however far apart the sharers sit and however many workers
// run; and with a key nobody shares it is RunIndexed.
func TestRunDistinct(t *testing.T) {
	defer SetParallelism(0)
	DrainTimings()
	keys := []string{"a", "b", "a", "c", "b", "a", "d"} // "a" at 0, 2 and 5
	name := func(i int) string { return fmt.Sprintf("job-%d", i) }
	for _, workers := range []int{1, 4} {
		SetParallelism(workers)
		var runs [7]atomic.Int32
		got := RunDistinct("distinct-test", len(keys), name,
			func(i int) string { return keys[i] },
			func(i int) string {
				runs[i].Add(1)
				return fmt.Sprintf("%s computed by %d", keys[i], i)
			})
		want := []string{"a computed by 0", "b computed by 1", "a computed by 0", "c computed by 3",
			"b computed by 1", "a computed by 0", "d computed by 6"}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d workers: results %q, want %q", workers, got, want)
		}
		for i, want := range []int32{1, 1, 0, 1, 0, 0, 1} { // the first of each key, once
			if ran := runs[i].Load(); ran != want {
				t.Fatalf("%d workers: job %d ran %d times, want %d", workers, i, ran, want)
			}
		}
		if jobs := lastJobs(t, "distinct-test"); !reflect.DeepEqual(jobs, []string{"job-0", "job-1", "job-3", "job-6"}) {
			t.Fatalf("%d workers: timing entries %q, want the four jobs that ran, in index order", workers, jobs)
		}

		square := func(i int) int { return i * i }
		all := RunDistinct("distinct-test", 9, name, func(i int) int { return i }, square)
		allJobs := lastJobs(t, "distinct-test")
		indexed := RunIndexed("distinct-test", 9, name, square)
		if !reflect.DeepEqual(all, indexed) || !reflect.DeepEqual(allJobs, lastJobs(t, "distinct-test")) {
			t.Fatalf("%d workers: identity key gives %v under %q, RunIndexed %v", workers, all, allJobs, indexed)
		}
	}
	if got := RunDistinct("distinct-test", 0, name, func(i int) int { return i }, func(i int) int { return i }); len(got) != 0 {
		t.Fatalf("empty batch returned %v", got)
	}
	DrainTimings()
}

// TestDistinctJobsMatchEveryJob: Figures 10, 12 and 13 simulate each
// distinct job once and are deep-equal to themselves with every job run —
// the job index as the key, the code path before jobs were compared.
func TestDistinctJobsMatchEveryJob(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(2)
	DrainTimings()
	index10 := func(i int, _ workloads.SystemSpec, _ workloads.LMBenchKernel) any { return i }
	indexSpec := func(i int, _ workloads.SystemSpec) any { return i }
	for _, c := range []struct {
		name               string
		experiment         string
		distinct, every    func() interface{}
		wantJobs, wantFull int
	}{
		{"fig10", "fig10", func() interface{} { return RunFig10(Quick) },
			func() interface{} { return runFig10(Quick, index10) }, 15, 21},
		{"fig12", "specint", func() interface{} { return RunSpecInt(Quick, true) },
			func() interface{} { return runSpecInt(Quick, true, indexSpec) }, 4, 8},
		{"fig13", "specint", func() interface{} { return RunSpecInt(Quick, false) },
			func() interface{} { return runSpecInt(Quick, false, indexSpec) }, 4, 8},
	} {
		c := c
		t.Run(c.name, func(t *testing.T) {
			distinct := c.distinct()
			if jobs := lastJobs(t, c.experiment); len(jobs) != c.wantJobs {
				t.Fatalf("%d jobs ran, want %d: %q", len(jobs), c.wantJobs, jobs)
			}
			every := c.every()
			if jobs := lastJobs(t, c.experiment); len(jobs) != c.wantFull {
				t.Fatalf("with the index as key %d jobs ran, want %d", len(jobs), c.wantFull)
			}
			if !reflect.DeepEqual(distinct, every) {
				t.Fatalf("distinct jobs and every job disagree:\ndistinct: %+v\nevery:    %+v", distinct, every)
			}
		})
	}
}

// TestSystemKeys: the key two jobs are compared by separates everything
// that changes a simulation. At Full scale the eight panel sides of
// Figures 12/13 are six systems (keys only — nothing is simulated), and a
// spec that differs from another in any one scalar field — CoreMLP 6 vs 5
// is what tells intel-8280 from a renamed intel-8180 — has its own key.
func TestSystemKeys(t *testing.T) {
	names := map[systemKey]string{}
	for _, p := range specIntPanels(Full) {
		for _, side := range []workloads.SystemSpec{p.a, p.b} {
			if prev, ok := names[keyOfSystem(side)]; ok && prev != side.Name {
				t.Fatalf("%s and %s share a key", prev, side.Name)
			}
			names[keyOfSystem(side)] = side.Name
		}
	}
	var got []string
	for _, n := range names {
		got = append(got, n)
	}
	sort.Strings(got)
	if want := []string{"amd-7742", "intel-8180", "intel-8280", "this-work", "this-work-28", "this-work-64"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Full-scale panel sides are the systems %q, want %q", got, want)
	}
	if quick := specIntPanels(Quick); keyOfSystem(quick[0].a) != keyOfSystem(quick[3].a) {
		t.Fatal("Quick-scale this-work and its scaled-down stand-in differ: they are one system")
	}

	renamed := workloads.Intel8180()
	renamed.Name = "intel-8280"
	if keyOfSystem(renamed) == keyOfSystem(workloads.Intel8280()) {
		t.Fatal("CoreMLP 5 and 6 share a key")
	}
	// Every field of a SystemSpec that can be compared is in the key: a
	// field added to one and not the other fails here.
	base := workloads.Intel8280()
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		changed := base
		f := reflect.ValueOf(&changed).Elem().Field(i)
		switch f.Kind() {
		case reflect.Func:
			continue
		case reflect.String:
			f.SetString(f.String() + "'")
		case reflect.Int:
			f.SetInt(f.Int() + 1)
		case reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() + 0.5)
		default:
			t.Fatalf("SystemSpec.%s is a %s: teach systemKey and this test about it", typ.Field(i).Name, f.Kind())
		}
		if keyOfSystem(changed) == keyOfSystem(base) {
			t.Errorf("two specs differing in %s share a key", typ.Field(i).Name)
		}
	}
}
