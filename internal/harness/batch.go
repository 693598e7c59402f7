// Batch replay: the daemon's packet-ingestion primitive. Unlike
// Throughput (which replays a trace repeatedly to measure), ReplayBatch
// pushes one batch through a long-lived instance exactly once,
// preserving the guard's arrival clock across batches; ReplayShards
// does the same for a sharded module, one goroutine per shard.

package harness

import (
	"fmt"
	"time"

	"enetstl/internal/guard"
	"enetstl/internal/nf"
	"enetstl/internal/pktgen"
)

// BatchResult summarizes one batch replay.
type BatchResult struct {
	Packets  int           `json:"packets"`
	Shed     uint64        `json:"shed"`
	Sampled  uint64        `json:"sampled"`
	Verdicts VerdictCounts `json:"-"`
	Ns       int64         `json:"ns"`
	// VerdictMap is the verdict tally in serializable form.
	VerdictMap map[string]uint64 `json:"verdicts"`
}

// PPS is the batch's replay rate in packets per second.
func (r BatchResult) PPS() float64 {
	return float64(r.Packets) / time.Duration(r.Ns).Seconds()
}

func (r *BatchResult) finish(start time.Time) {
	r.Ns = time.Since(start).Nanoseconds()
	r.VerdictMap = r.Verdicts.Map()
}

// ReplayBatch replays tr once through inst. Guard-fronted instances
// are driven on the trace's arrival clock offset by tickBase: each
// batch's arrivals restart at zero, but a guard's tick must be monotone
// for the life of the instance, so the caller threads the returned
// nextTick into the next batch. Unguarded instances ignore the clock.
func ReplayBatch(inst nf.Instance, tr *pktgen.Trace, tickBase uint64) (BatchResult, uint64, error) {
	res := BatchResult{Packets: len(tr.Packets)}
	start := time.Now()
	nextTick, err := replay(inst, tr, tickBase, func(i int, o outcome) error {
		if o.err != nil {
			return fmt.Errorf("harness: packet %d: %w", i, o.err)
		}
		switch o.act {
		case guard.ActionShed:
			res.Shed++
		case guard.ActionSample:
			res.Sampled++
		}
		res.Verdicts.Count(o.verdict)
		return nil
	})
	res.finish(start)
	return res, nextTick, err
}

// ReplayShards replays one batch already hash-partitioned across a
// sharded module: subs[s] goes through insts[s] from tick base ticks[s],
// each shard on its own goroutine — one core per RSS queue, as
// ParallelRun models — and ticks[s] advances to that shard's next tick.
// A lone shard replays inline. The result merges the shard tallies and
// its Ns is the batch's wall time; the error is the lowest failing
// shard's.
func ReplayShards(insts []nf.Instance, subs []*pktgen.Trace, ticks []uint64) (BatchResult, error) {
	if len(subs) == 1 {
		res, next, err := ReplayBatch(insts[0], subs[0], ticks[0])
		ticks[0] = next
		return res, err
	}
	results := make([]BatchResult, len(subs))
	start := time.Now()
	err := fanOut(len(subs), func(s int) error {
		var err error
		results[s], ticks[s], err = ReplayBatch(insts[s], subs[s], ticks[s])
		return err
	})
	var total BatchResult
	for _, r := range results {
		total.Packets += r.Packets
		total.Shed += r.Shed
		total.Sampled += r.Sampled
		total.Verdicts.Add(r.Verdicts)
	}
	total.finish(start)
	return total, err
}
