package alerts

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"aero/internal/core"
	"aero/internal/engine"
)

// testConfig is the shared test profile: 5-unit dedup buckets, 15-unit
// episode gap, 10-unit correlation window, 200-unit episode cap.
func testConfig() Config {
	return Config{
		BucketWidth:   5,
		EpisodeGap:    15,
		MaxEpisodeLen: 200,
		Window:        10,
	}
}

func alarm(sub string, variate int, t, score float64) engine.Alarm {
	return engine.Alarm{Sub: sub, Alarm: core.Alarm{Variate: variate, Time: t, Score: score}}
}

// recordedSequence builds the deterministic multi-tenant alarm flood the
// golden and reduction tests replay: per-frame alarms over 1000 frames
// across 8 tenants, with
//
//   - bursty single-tenant background: every 50 frames one tenant's one
//     variate fires for 12 consecutive frames at score ≈1.5 (instrument
//     noise — each burst should triage to one demoted incident);
//   - one injected cross-tenant event: frames 500–559, variate 2 of
//     tenants 0–5, ramping to a peak of ≈9.5 near frame 530, with
//     tenant i's onset lagging 2i frames (the transient sweeping across
//     fields — should triage to the single top-ranked incident);
//   - a single-tenant artifact: frames 300–329, tenant 6 variate 5 at
//     score 4 (should rank below the event via breadth demotion).
func recordedSequence() []engine.Alarm {
	var seq []engine.Alarm
	tenant := func(i int) string { return fmt.Sprintf("field-%d", i) }
	for t := 0; t < 1000; t++ {
		ft := float64(t)
		// Background bursts.
		burst := t / 50
		if t%50 < 12 {
			seq = append(seq, alarm(tenant(burst%8), (burst*3)%6, ft, 1.5+0.01*float64(t%12)))
		}
		// Injected cross-tenant event.
		if t >= 500 && t < 560 {
			for i := 0; i < 6; i++ {
				onset := 500 + 2*i
				if t >= onset {
					score := 9.5 - 0.1*math.Abs(float64(t)-530)
					seq = append(seq, alarm(tenant(i), 2, ft, score))
				}
			}
		}
		// Single-tenant artifact.
		if t >= 300 && t < 330 {
			seq = append(seq, alarm(tenant(6), 5, ft, 4.0))
		}
	}
	return seq
}

// feed replays a slice of the sequence, collecting copies of every
// emitted incident.
func feed(p *Pipeline, seq []engine.Alarm) []Incident {
	var out []Incident
	for _, a := range seq {
		for _, inc := range p.Push(a) {
			inc.Episodes = append([]Episode(nil), inc.Episodes...)
			out = append(out, inc)
		}
	}
	return out
}

// renderIncidents formats an incident list for exact comparison.
func renderIncidents(incs []Incident) string {
	var b strings.Builder
	for _, inc := range incs {
		fmt.Fprintf(&b, "#%d onset=%.3f end=%.3f peak=%.6f tenants=%d frames=%d sev=%.6f demoted=%v\n",
			inc.ID, inc.Onset, inc.End, inc.Peak, inc.Tenants, inc.Frames, inc.Severity, inc.Demoted)
		for _, ep := range inc.Episodes {
			fmt.Fprintf(&b, "  %s/%d [%.3f,%.3f] peak=%.6f@%.3f frames=%d\n",
				ep.Tenant, ep.Variate, ep.Onset, ep.End, ep.Peak, ep.PeakTime, ep.Frames)
		}
	}
	return b.String()
}

// runRecorded replays the full recorded sequence plus the end-of-feed
// flush through a fresh pipeline and returns the rendered incident list.
func runRecorded(p *Pipeline) string {
	incs := feed(p, recordedSequence())
	for _, inc := range p.Finalize() {
		inc.Episodes = append([]Episode(nil), inc.Episodes...)
		incs = append(incs, inc)
	}
	return renderIncidents(incs)
}

// TestTriageGoldenDeterminism is the pipeline's determinism contract:
// replaying the recorded multi-tenant alarm sequence through two fresh
// pipelines yields byte-identical incident lists.
func TestTriageGoldenDeterminism(t *testing.T) {
	a := runRecorded(NewPipeline(testConfig()))
	b := runRecorded(NewPipeline(testConfig()))
	if a != b {
		t.Fatalf("two replays of the same alarm sequence diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a, b)
	}
	if a == "" {
		t.Fatal("recorded sequence produced no incidents; determinism test is vacuous")
	}
}

// TestTriageSnapshotBoundaryDeterminism replays the recorded sequence
// with a snapshot/restore boundary in the middle — while episodes and
// candidates are mid-flight — and requires the concatenated incident
// list to be byte-identical to the uninterrupted run.
func TestTriageSnapshotBoundaryDeterminism(t *testing.T) {
	want := runRecorded(NewPipeline(testConfig()))

	seq := recordedSequence()
	cut := 0
	for i, a := range seq {
		if a.Time >= 520 { // mid-event: the cross-tenant episodes are open
			cut = i
			break
		}
	}
	p1 := NewPipeline(testConfig())
	incs := feed(p1, seq[:cut])
	if st := p1.Stats(); st.OpenEpisodes == 0 {
		t.Fatal("cut point left no episodes mid-flight; boundary test is vacuous")
	}
	blob, err := p1.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewPipeline(testConfig())
	if err := p2.RestoreState(blob); err != nil {
		t.Fatal(err)
	}
	incs = append(incs, feed(p2, seq[cut:])...)
	for _, inc := range p2.Finalize() {
		inc.Episodes = append([]Episode(nil), inc.Episodes...)
		incs = append(incs, inc)
	}
	if got := renderIncidents(incs); got != want {
		t.Fatalf("snapshot/restore boundary changed the incident list:\n--- uninterrupted ---\n%s\n--- with boundary ---\n%s", want, got)
	}
}

// TestTriageFloodReductionAndRanking is the triage payoff contract on
// the recorded flood: ≥90%% alarm→incident reduction, the injected
// cross-tenant event recovered as the top-ranked incident, and breadth
// demotion applied to the single-tenant artifact.
func TestTriageFloodReductionAndRanking(t *testing.T) {
	p := NewPipeline(testConfig())
	incs := feed(p, recordedSequence())
	incs = append(incs, p.Finalize()...)
	st := p.Stats()
	if st.Alarms == 0 || st.Incidents == 0 {
		t.Fatalf("vacuous flood: %+v", st)
	}
	if st.Reduction < 0.9 {
		t.Fatalf("alarm→incident reduction %.3f (%d alarms → %d incidents), want ≥ 0.90",
			st.Reduction, st.Alarms, st.Incidents)
	}
	if st.Deduped == 0 {
		t.Fatal("dedup stage dropped nothing on a per-frame flood")
	}

	top := incs[0]
	for _, inc := range incs[1:] {
		if inc.Severity > top.Severity {
			top = inc
		}
	}
	if top.Tenants != 6 || top.Onset != 500 {
		t.Fatalf("top incident is %+v, want the injected event (6 tenants, onset 500)", top)
	}
	if math.Abs(top.Peak-9.5) > 0.11 {
		t.Fatalf("top incident peak %.3f, want ≈9.5", top.Peak)
	}
	if top.Demoted {
		t.Fatal("cross-tenant event demoted")
	}

	// The artifact burst must exist and rank strictly below the event.
	foundArtifact := false
	for _, inc := range incs {
		if inc.Tenants == 1 && inc.Onset == 300 {
			foundArtifact = true
			if !inc.Demoted {
				t.Fatalf("single-tenant artifact not demoted: %+v", inc)
			}
			if inc.Severity >= top.Severity {
				t.Fatalf("artifact severity %.3f outranks event %.3f", inc.Severity, top.Severity)
			}
		}
	}
	if !foundArtifact {
		t.Fatal("artifact burst produced no incident")
	}
}

// TestTriageEpisodeCoalescing pins the episode stage's bookkeeping on a
// hand-built run: consecutive buckets coalesce, a gap splits, peak and
// extent are tracked, and the duration cap forces a split.
func TestTriageEpisodeCoalescing(t *testing.T) {
	p := NewPipeline(testConfig())
	// One run: alarms at t=0,5,10 (new bucket each), peak in the middle.
	p.Push(alarm("a", 0, 0, 2))
	p.Push(alarm("a", 0, 5, 7))
	p.Push(alarm("a", 0, 10, 3))
	// Silence until t=100 (> gap) closes it; the next alarm opens run 2.
	p.Push(alarm("a", 0, 100, 1))
	incs := append([]Incident(nil), p.Finalize()...)
	if len(incs) != 2 {
		t.Fatalf("got %d incidents, want 2 (gap split): %s", len(incs), renderIncidents(incs))
	}
	first := incs[0]
	if len(first.Episodes) != 1 {
		t.Fatalf("first incident has %d episodes, want 1", len(first.Episodes))
	}
	ep := first.Episodes[0]
	if ep.Onset != 0 || ep.End != 10 || ep.Peak != 7 || ep.PeakTime != 5 || ep.Frames != 3 {
		t.Fatalf("episode bookkeeping wrong: %+v", ep)
	}

	// Duration cap: alarms every 5 units for 300 units must split at the
	// 200-unit cap.
	p2 := NewPipeline(testConfig())
	var got []Incident
	for ti := 0.0; ti <= 300; ti += 5 {
		got = append(got, p2.Push(alarm("b", 1, ti, 1))...)
	}
	got = append(got, p2.Finalize()...)
	total := 0
	for _, inc := range got {
		total += len(inc.Episodes)
	}
	if total != 2 {
		t.Fatalf("capped run produced %d episodes, want 2 (split at MaxEpisodeLen)", total)
	}
}

// TestTriageDedup pins the dedup stage: same-bucket repeats drop, and a
// source's same-bucket repeat is still a duplicate after 500 other
// sources' alarms — the check reads the source's own open episode, which
// no other source's alarm can evict.
func TestTriageDedup(t *testing.T) {
	p := NewPipeline(testConfig())
	p.Push(alarm("a", 0, 0, 1))
	p.Push(alarm("a", 0, 1, 1)) // same bucket → duplicate
	p.Push(alarm("a", 0, 2, 1)) // same bucket → duplicate
	if st := p.Stats(); st.Deduped != 2 || st.Alarms != 3 {
		t.Fatalf("dedup stats %+v, want 2 deduped of 3", st)
	}
	for i := 0; i < 500; i++ {
		p.Push(alarm("flood", i, 3, 1))
	}
	if st := p.Stats(); st.Deduped != 2 {
		t.Fatalf("500 distinct sources' first alarms: %d deduped, want 2", st.Deduped)
	}
	p.Push(alarm("a", 0, 4, 1)) // same bucket as the t=0..2 alarms
	if st := p.Stats(); st.Deduped != 3 {
		t.Fatalf("same-bucket repeat after a flood of other sources: %d deduped, want 3", st.Deduped)
	}
}

// TestTriageDedupKeepsEveryNovelSource: 10,000 sources (4 tenants ×
// 2,500 variates) alarm once each inside one bucket. Every alarm is a
// source's first in its bucket, so none may drop, and Finalize closes
// one episode per source and correlates them into one incident.
func TestTriageDedupKeepsEveryNovelSource(t *testing.T) {
	const tenants, variates = 4, 2500
	ids := [tenants]string{"field-0", "field-1", "field-2", "field-3"}
	p := NewPipeline(testConfig())
	for i := 0; i < tenants*variates; i++ {
		p.Push(alarm(ids[i%tenants], i/tenants, float64(i)/(2*tenants*variates)*testConfig().BucketWidth, 1))
	}
	incs := p.Finalize()
	if st := p.Stats(); st.Deduped != 0 || st.Episodes != tenants*variates {
		t.Fatalf("%d deduped, %d episodes; want 0 and %d", st.Deduped, st.Episodes, tenants*variates)
	}
	if len(incs) != 1 {
		t.Fatalf("Finalize returned %d incidents, want 1", len(incs))
	}
	if inc := incs[0]; inc.Tenants != tenants || len(inc.Episodes) != tenants*variates {
		t.Fatalf("incident reaches %d tenants with %d episodes; want %d and %d", inc.Tenants, len(inc.Episodes), tenants, tenants*variates)
	}
}

// TestTriageDedupAfterLagClose: the watermark closes a lagging source's
// quiet episode, so the source's next alarm opens a fresh episode even
// inside the closed one's last bucket.
func TestTriageDedupAfterLagClose(t *testing.T) {
	p := NewPipeline(testConfig())  // 5-unit buckets, 15-unit gap
	p.Push(alarm("slow", 0, 0, 1))  // opens slow/0 in bucket 0
	p.Push(alarm("fast", 0, 16, 1)) // watermark 16 closes slow/0 (16 − 0 > 15)
	if st := p.Stats(); st.Episodes != 1 {
		t.Fatalf("after the watermark passed slow/0: %+v; want 1 closed episode", st)
	}
	p.Push(alarm("slow", 0, 2, 1)) // bucket 0 again, 14 behind the watermark
	if st := p.Stats(); st.Deduped != 0 || st.OpenEpisodes != 2 {
		t.Fatalf("after the lagging alarm: %+v; want 0 deduped, 2 open episodes", st)
	}
	p.Finalize()
	if st := p.Stats(); st.Episodes != 3 {
		t.Fatalf("%d episodes, want 3 (slow twice, fast once)", st.Episodes)
	}
}

// TestTriagePushAllocs pins the benign path's allocation budget at zero:
// a warm pipeline absorbing duplicate drops and episode extensions — the
// overwhelmingly common cases during an alarm burst — must not allocate.
func TestTriagePushAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.MaxEpisodeLen = math.MaxFloat64 / 4 // keep extensions benign for the whole run
	p := NewPipeline(cfg)
	const tenants = 8
	ids := [tenants]string{}
	for i := range ids {
		ids[i] = fmt.Sprintf("field-%d", i)
	}
	ti := 0
	extend := func() {
		ft := float64(ti * 5) // one bucket per round: every push survives dedup
		for i := 0; i < tenants; i++ {
			if got := p.Push(alarm(ids[i], 0, ft, 1)); len(got) != 0 {
				t.Fatalf("benign extension emitted %d incidents", len(got))
			}
		}
		ti++
	}
	for i := 0; i < 64; i++ {
		extend() // warm: episodes open, pools primed
	}
	if allocs := testing.AllocsPerRun(64, extend); allocs != 0 {
		t.Fatalf("episode-extension push allocated %.1f times, want 0", allocs)
	}
	dup := func() {
		ft := float64((ti - 1) * 5) // same bucket as the last extension round
		for i := 0; i < tenants; i++ {
			if got := p.Push(alarm(ids[i], 0, ft, 1)); len(got) != 0 {
				t.Fatalf("duplicate push emitted %d incidents", len(got))
			}
		}
	}
	if allocs := testing.AllocsPerRun(64, dup); allocs != 0 {
		t.Fatalf("duplicate-drop push allocated %.1f times, want 0", allocs)
	}
}

// TestTriageStatsAndReuse covers the remaining surface: stats coherence
// and that a pipeline stays usable after Finalize.
func TestTriageStatsAndReuse(t *testing.T) {
	p := NewPipeline(testConfig())
	feed(p, recordedSequence())
	p.Finalize()
	st := p.Stats()
	if st.OpenEpisodes != 0 || st.PendingIncidents != 0 {
		t.Fatalf("finalized pipeline still has in-flight state: %+v", st)
	}
	if st.Reduction <= 0 || st.Reduction >= 1 {
		t.Fatalf("implausible reduction %.3f", st.Reduction)
	}
	// Reuse after Finalize: a fresh burst still triages.
	p.Push(alarm("x", 0, 5000, 2))
	p.Push(alarm("y", 0, 5001, 3))
	incs := p.Finalize()
	if len(incs) != 1 || incs[0].Tenants != 2 {
		t.Fatalf("post-Finalize reuse broken: %s", renderIncidents(incs))
	}
	if incs[0].ID == 0 {
		t.Fatal("incident IDs restarted after Finalize")
	}
}
