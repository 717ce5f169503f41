// GWAC stream: train on a simulated Ground-based Wide Angle Camera night,
// then replay the test night as an online stream, printing alarms as each
// new frame's magnitudes arrive — the deployment mode of §III-F.
package main

import (
	"fmt"
	"log"

	"aero"
)

func main() {
	// A compact GWAC field with irregular 15s cadence. The full-size
	// presets (AstrosetMiddle etc. in internal/dataset) use the paper's
	// Table I shapes.
	gen := aero.GWACConfig{
		Name: "gwac-night", N: 10, TrainLen: 900, TestLen: 600,
		AnomalySegments: 2, AnomalyLen: 50, NoisePct: 4,
		CadenceSec: 15, JitterSec: 2, GapProb: 0.002, Seed: 7,
	}
	d := gen.Generate()
	fmt.Printf("field of %d stars; training on %d archived frames\n", d.Train.N(), d.Train.Len())

	model, err := aero.New(aero.SmallConfig(), d.Train.N())
	if err != nil {
		log.Fatal(err)
	}
	if err := model.Fit(d.Train); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("model ready (threshold %.4f); replaying the observation night...\n\n", model.Threshold())

	// Online mode: frames arrive one at a time; the stream detector keeps
	// a bounded window and scores each frame as it lands (Algorithm 2).
	stream, err := aero.NewStreamDetector(model)
	if err != nil {
		log.Fatal(err)
	}
	timeIndex := make(map[float64]int, d.Test.Len())
	for t, tv := range d.Test.Time {
		timeIndex[tv] = t
	}
	frame := aero.Frame{Magnitudes: make([]float64, d.Test.N())}
	active := make(map[int]bool) // star -> currently alarming
	raised := 0
	for t := 0; t < d.Test.Len(); t++ {
		frame.Time = d.Test.Time[t]
		for v := 0; v < d.Test.N(); v++ {
			frame.Magnitudes[v] = d.Test.Data[v][t]
		}
		alarms, err := stream.Push(frame)
		if err != nil {
			log.Fatal(err)
		}
		firing := make(map[int]bool, len(alarms))
		for _, a := range alarms {
			firing[a.Variate] = true
			if active[a.Variate] {
				continue // alarm already open for this star
			}
			label := "candidate event"
			idx := timeIndex[a.Time]
			if d.Test.Labels[a.Variate][idx] {
				label = "TRUE EVENT"
			} else if d.Test.NoiseMask[a.Variate][idx] {
				label = "noise leak"
			}
			fmt.Printf("t=%7.0fs  star %2d  score %.4f  ALARM RAISED (%s)\n",
				a.Time, a.Variate, a.Score, label)
			active[a.Variate] = true
			raised++
		}
		for v := range active {
			if !firing[v] {
				delete(active, v)
			}
		}
	}
	fmt.Printf("\nnight replay complete: %d alarm(s) raised across %d frames\n", raised, d.Test.Len())
}
