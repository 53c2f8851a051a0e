package main

import (
	"io"
	"runtime"
	"sync"
	"time"

	"shareddb"
	"shareddb/internal/types"
)

// lane is one closed-loop caller: it issues its next operation only after
// the previous one has returned, as a TPC-W emulated browser or a client
// goroutine holding one slot of a pipelined connection does. A lane's
// operations are generated before the clock starts; step runs the next
// one.
type lane interface {
	// step runs the lane's next pre-generated operation. tr is nil on
	// untraced windows.
	step(tr *laneTrace) error
}

// system is one set-up database under test with its closed-loop lanes.
type system interface {
	lanes() []lane
	// setCapture turns the per-lane capture of call inputs on or off;
	// turning it on discards what was captured before.
	setCapture(on bool)
	captured() capture
	// counters reads, from outside the engine, the counts a window is
	// bracketed with.
	counters() counters
	// configIgnored lists engine_config.json fields shareddb.Config no
	// longer has.
	configIgnored() []string
	// check runs the post-window correctness checks on the idle system
	// and returns how many reads it compared and one line per wrong result.
	check(log io.Writer) (checked int, wrong []string, err error)
	close() error
}

// counters is what the benchmark reads from outside around a window.
type counters struct {
	stats    shareddb.Stats
	mem      runtime.MemStats
	walBytes int64 // size of the write-ahead log, when the workload logs
	reads    int   // Stmt.Query calls the lanes have made (TPC-W)
}

// call is one captured engine call: a statement of the workload (by its
// index in the workload's statement list) and the parameters it ran with.
type call struct {
	stmt   int
	params []types.Value
}

// capture is a sample of the inputs a window sent into the engine. The
// correctness check replays the reads through the baseline; the layer
// probes replay reads and writes through each layer alone.
type capture struct {
	reads  []call
	writes []call // standalone writes and the statements of committed transactions
}

// captureLimit bounds what one lane keeps: with 128 lanes the sample is a
// few thousand calls, enough for stable per-layer means without holding
// the whole window's inputs.
const captureLimit = 48

// driveOps runs a fixed amount of work: every lane executes opsPerLane
// operations. Set-up uses it for the warm-up, so that work moved into
// set-up shows as set-up time.
func driveOps(lanes []lane, opsPerLane int) error {
	var wg sync.WaitGroup
	errs := make([]error, len(lanes))
	for i, l := range lanes {
		wg.Add(1)
		go func(i int, l lane) {
			defer wg.Done()
			for n := 0; n < opsPerLane; n++ {
				if err := l.step(nil); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, l)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// driveFor runs every lane in a closed loop for length and returns the raw
// samples. traces, when non-nil, holds one span buffer per lane. The
// loop does nothing but take two timestamps, run the operation and append
// one sample; a lane that fails keeps going (a failure is an outcome to
// count, not a reason to stop offering load).
func driveFor(lanes []lane, length time.Duration, capPerLane int, traces []*laneTrace) []*laneRecorder {
	recs := make([]*laneRecorder, len(lanes))
	for i := range recs {
		recs[i] = newLaneRecorder(capPerLane)
	}
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(length)
	for i, l := range lanes {
		var tr *laneTrace
		if traces != nil {
			tr = traces[i]
			tr.epoch = start
		}
		wg.Add(1)
		go func(l lane, rec *laneRecorder, tr *laneTrace) {
			defer wg.Done()
			for {
				t0 := time.Now()
				if !t0.Before(deadline) {
					return
				}
				err := l.step(tr)
				rec.observe(t0, time.Since(t0), start, err != nil)
				if err != nil && rec.firstErr == nil {
					rec.firstErr = err
				}
			}
		}(l, recs[i], tr)
	}
	wg.Wait()
	return recs
}
