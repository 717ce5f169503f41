package ingest_test

import (
	"testing"

	"aero/internal/core"
	"aero/internal/ingest"
)

// BenchmarkIngestRoundTrip measures the full network path per frame:
// client encode → TCP loopback → CRC check → decode → engine ingest →
// worker push → batched ack → credit top-up back to the client. The
// backend is a no-op gate so the row isolates transport + engine cost;
// b.SetBytes reports wire throughput.
func BenchmarkIngestRoundTrip(b *testing.B) {
	const variates = 5
	r := startWireRig(b, variates, b.N, nil)
	c := r.dial(b, ingest.ClientConfig{})
	frame := core.Frame{Magnitudes: make([]float64, variates)}

	b.SetBytes(int64(ingest.DataWireSize(variates)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame.Time = float64(i)
		if err := c.Send(frame); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()

	if err := c.Close(); err != nil {
		b.Fatal(err)
	}
	r.stop()
}
