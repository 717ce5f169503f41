package ingest

import (
	"errors"
	"time"

	"aero/internal/core"
)

// FrameSource replays a variate-major series as a paced stream of
// frames. It is the one feeder shared by file replay (aeroserve's
// per-tenant goroutines emitting into Engine.Ingest) and the network
// load generator (aeroload emitting into Client.Send) — both sinks
// block when saturated, which is exactly the lossless backpressure the
// feeder is meant to transmit.
type FrameSource struct {
	// Time holds the sample timestamps; Data[v][t] the magnitudes.
	Time []float64
	Data [][]float64
	// Offset shifts every emitted timestamp, letting a restored tenant
	// continue strictly after its checkpointed cursor (see ResumeOffset).
	Offset float64
	// Rate paces the feed in frames per second; 0 replays as fast as the
	// sink accepts, and so does a rate whose period rounds below one
	// nanosecond (above 1e9 frames/s, or +Inf), which no ticker can keep.
	Rate float64
	// Stop, when non-nil, ends the feed early once closed: the frame in
	// flight completes, no further frames are emitted.
	Stop <-chan struct{}
}

// ErrStopped is returned by Feed when its Stop channel closes before
// the series is exhausted.
var ErrStopped = errors.New("ingest: frame source stopped")

// Feed emits every frame in order and returns how many were emitted.
// It stops early on the first emit error (returned as-is) or when Stop
// closes (returning ErrStopped). The frame's magnitude slice is reused
// across calls; sinks must copy what they retain — Engine.Ingest and
// Client.Send both do.
func (fs *FrameSource) Feed(emit func(core.Frame) error) (int, error) {
	frame := core.Frame{Magnitudes: make([]float64, len(fs.Data))}
	var tick *time.Ticker
	if period := time.Duration(float64(time.Second) / fs.Rate); fs.Rate > 0 && period > 0 {
		tick = time.NewTicker(period)
		defer tick.Stop()
	}
	for t := range fs.Time {
		if tick != nil {
			select {
			case <-tick.C:
			case <-fs.Stop:
				return t, ErrStopped
			}
		} else if fs.Stop != nil {
			select {
			case <-fs.Stop:
				return t, ErrStopped
			default:
			}
		}
		frame.Time = fs.Time[t] + fs.Offset
		for v := range fs.Data {
			frame.Magnitudes[v] = fs.Data[v][t]
		}
		if err := emit(frame); err != nil {
			return t, err
		}
	}
	return len(fs.Time), nil
}

// ResumeOffset computes the timestamp shift for a tenant restored from
// a checkpoint: when the tenant's last scored time is at or past the
// series start, the replay is shifted to continue one step after it, so
// the feed never rewinds across a restart. haveLast=false (a cold
// tenant) yields no shift.
func ResumeOffset(last float64, haveLast bool, seriesStart, step float64) float64 {
	if !haveLast || last < seriesStart {
		return 0
	}
	return last - seriesStart + step
}
