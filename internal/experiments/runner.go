package experiments

import (
	"runtime"
	"sync"
	"time"
)

// Job is one independent sub-simulation of an experiment. Every job owns
// its own simulator instance (network, engine, RNGs), so jobs never share
// mutable state and can run on any goroutine. Run writes its result into
// a slot the enclosing Run* function pre-allocated, keyed by the job's
// index, so the collected result order is a property of enumeration
// order, never of completion order.
type Job struct {
	// Name identifies the job in timing reports, e.g. "table5/inter-M".
	Name string
	// Run performs the sub-simulation.
	Run func()
}

var parallelism = struct {
	sync.RWMutex
	n int
}{n: runtime.NumCPU()}

// SetParallelism bounds the number of worker goroutines RunJobs uses.
// n <= 0 resets to runtime.NumCPU(). SetParallelism(1) reproduces the
// historical strictly-sequential execution exactly.
func SetParallelism(n int) {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	parallelism.Lock()
	parallelism.n = n
	parallelism.Unlock()
}

// Parallelism returns the current worker bound.
func Parallelism() int {
	parallelism.RLock()
	defer parallelism.RUnlock()
	return parallelism.n
}

// SetSimPartitions does nothing; kept only because bench/ compiles against it.
func SetSimPartitions(int) {}

// JobTiming is one job's measured wall clock.
type JobTiming struct {
	Name string
	Wall time.Duration
}

// ExperimentTiming is the per-experiment timing record RunJobs appends to
// the package timing log: one entry per RunJobs call, job timings in
// enumeration order.
type ExperimentTiming struct {
	Experiment string
	Workers    int
	Wall       time.Duration // wall clock of the whole RunJobs call
	Jobs       []JobTiming   // per-job wall clock, enumeration order
}

// SerialWall sums the per-job wall clocks: the time the batch would have
// cost on one worker. Wall/SerialWall < 1 is the measured speedup.
func (e ExperimentTiming) SerialWall() time.Duration {
	var sum time.Duration
	for _, j := range e.Jobs {
		sum += j.Wall
	}
	return sum
}

var timingLog struct {
	sync.Mutex
	entries []ExperimentTiming
}

// DrainTimings returns and clears the accumulated timing records, in the
// order the RunJobs calls completed. cmd/experiments drains after each
// artifact to report where the cycles went.
func DrainTimings() []ExperimentTiming {
	timingLog.Lock()
	defer timingLog.Unlock()
	out := timingLog.entries
	timingLog.entries = nil
	return out
}

// RunJobs executes the batch on up to Parallelism() worker goroutines and
// returns per-job wall-clock timings in enumeration order. With
// parallelism 1 the jobs run strictly sequentially on the calling
// goroutine, byte-for-byte reproducing the pre-harness behaviour; with
// more workers the jobs are claimed in enumeration order but may finish
// in any order — result placement must therefore be index-keyed, which
// the Job contract requires.
func RunJobs(experiment string, jobs []Job) []JobTiming {
	start := time.Now()
	timings := make([]JobTiming, len(jobs))
	workers := Parallelism()
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers <= 1 {
		for i := range jobs {
			jobStart := time.Now()
			jobs[i].Run()
			timings[i] = JobTiming{Name: jobs[i].Name, Wall: time.Since(jobStart)}
		}
	} else {
		next := make(chan int)
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range next {
					jobStart := time.Now()
					jobs[i].Run()
					timings[i] = JobTiming{Name: jobs[i].Name, Wall: time.Since(jobStart)}
				}
			}()
		}
		for i := range jobs {
			next <- i
		}
		close(next)
		wg.Wait()
	}
	entry := ExperimentTiming{
		Experiment: experiment,
		Workers:    workers,
		Wall:       time.Since(start),
		Jobs:       timings,
	}
	timingLog.Lock()
	timingLog.entries = append(timingLog.entries, entry)
	timingLog.Unlock()
	return timings
}

// RunIndexed is the common fan-out shape: run fn(i) for every i in
// [0, n) as one job each and collect the returned values in index order.
// name(i) labels the job for timing reports.
func RunIndexed[T any](experiment string, n int, name func(i int) string, fn func(i int) T) []T {
	out := make([]T, n)
	jobs := make([]Job, n)
	for i := 0; i < n; i++ {
		i := i
		jobs[i] = Job{Name: name(i), Run: func() { out[i] = fn(i) }}
	}
	RunJobs(experiment, jobs)
	return out
}

// RunDistinct is RunIndexed for a batch in which some jobs simulate the
// same thing: key(i) names everything fn(i)'s result depends on, only the
// first index of each key runs (as one job, under its own name), and every
// index receives the result of its key's run, in index order. The copies
// are plain assignments, so T must not carry state its readers mutate.
// With a key no two indices share it is RunIndexed.
func RunDistinct[K comparable, T any](experiment string, n int, name func(i int) string, key func(i int) K, fn func(i int) T) []T {
	run := make(map[K]int, n) // key -> its position in first
	var first []int           // the index that runs for each key, in index order
	slot := make([]int, n)
	for i := 0; i < n; i++ {
		k := key(i)
		j, seen := run[k]
		if !seen {
			j = len(first)
			run[k] = j
			first = append(first, i)
		}
		slot[i] = j
	}
	ran := RunIndexed(experiment, len(first),
		func(j int) string { return name(first[j]) },
		func(j int) T { return fn(first[j]) })
	out := make([]T, n)
	for i := range out {
		out[i] = ran[slot[i]]
	}
	return out
}
