// Batch replay: the daemon's packet-ingestion primitive. Unlike
// Throughput (which replays a trace repeatedly to measure), ReplayBatch
// pushes one batch through a long-lived instance exactly once,
// preserving the guard's arrival clock across batches.

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
