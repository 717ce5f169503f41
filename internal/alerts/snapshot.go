package alerts

import (
	"fmt"
	"math"

	"aero/internal/snapfmt"
)

// Triage state snapshots follow the codebase's versioned little-endian
// binary convention (core's "AEROSNAP" detector states): everything the
// pipeline accumulates at runtime, fully validated before any mutation,
// CRC-32 trailer. A -checkpoint restart restores the snapshot and
// resumes episodes mid-flight with bit-identical downstream incidents.
//
//	magic    [8]byte  "AEROTRIA"
//	version  uint32   currently 3
//	bucket   float64  dedup bucket width      ┐ config echo; restore rejects
//	gap      float64  episode gap             │ a snapshot from a differently-
//	maxlen   float64  episode duration cap    │ configured pipeline (episode
//	window   float64  correlation window      │ and candidate state is only
//	mintens  uint32   demotion breadth bound  │ meaningful under the
//	demotion float64  demotion factor         ┘ parameters that built it)
//	seen     uint8    1 iff any alarm has arrived (watermark valid)
//	wm       float64  watermark
//	expiry   float64  next episode-expiry deadline (+Inf when none)
//	seq      uint64   next incident ID
//	counters 4×uint64 alarms, deduped, episodes, incidents
//	open     uint32 + episodes      (openList order — scan order matters)
//	cands    uint32 + candidates    (creation order)
//	crc      uint32   IEEE CRC-32 of every preceding byte
//
// where an episode is tenant(uint16+bytes), variate uint32, onset, end,
// peak, peakTime float64, frames uint32, and a candidate is anchor,
// deadline float64 plus its member episodes. The state is linear in open
// episodes and pending candidates. internal/snapfmt writes and checks the
// framing (magic, version, CRC, truncation).
//
// RestoreState also reads the two earlier versions and skips what they
// carry beyond version 3. Versions 1 and 2 end with lead-lag histograms,
// one per tenant pair that ever shared an incident: a uint32 pair count,
// then per pair two tenant strings, a uint64 total and 16 uint64 bins.
// Version 1 also held a probabilistic dedup filter: its geometry (cells,
// hashes, aging uint32, max uint8) before the config echo, and its aging
// cursor (uint32) and cells ([cells]uint8) after it. Dedup consults the
// open episodes, which every version carries.
var triageFormats = [...]snapfmt.Format{ // newest first; SnapshotState writes the first
	{Magic: "AEROTRIA", Version: 3, Pkg: "alerts", Name: "triage state"},
	{Magic: "AEROTRIA", Version: 2, Pkg: "alerts", Name: "triage state"},
	{Magic: "AEROTRIA", Version: 1, Pkg: "alerts", Name: "triage state"},
}

// SnapshotState serializes the pipeline's entire warm state — open
// episodes, pending candidates, watermark and counters — into a
// self-validating binary blob. A tenant ID longer than 65,535 bytes does
// not fit its length field and is an error.
func (p *Pipeline) SnapshotState() ([]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	w := snapfmt.NewWriter(triageFormats[0], 128+64*(len(p.openList)+len(p.cands)))
	w.F64(p.cfg.BucketWidth)
	w.F64(p.cfg.EpisodeGap)
	w.F64(p.cfg.MaxEpisodeLen)
	w.F64(p.cfg.Window)
	w.U32(minTenants)
	w.F64(demotion)
	w.Bool(p.seenWM)
	w.F64(p.watermark)
	w.F64(p.nextExpiry)
	w.U64(p.seq)
	w.U64(p.nAlarms)
	w.U64(p.nDeduped)
	w.U64(p.nEpisodes)
	w.U64(p.nIncidents)
	w.U32(uint32(len(p.openList)))
	for _, ep := range p.openList {
		writeEpisode(w, ep)
	}
	w.U32(uint32(len(p.cands)))
	for _, c := range p.cands {
		w.F64(c.anchor)
		w.F64(c.deadline)
		w.U32(uint32(len(c.eps)))
		for i := range c.eps {
			writeEpisode(w, &c.eps[i])
		}
	}
	return w.Seal()
}

// RestoreState replaces the pipeline's runtime state with a snapshot
// taken by SnapshotState on an identically-configured pipeline (any
// format version). The blob is fully validated (magic, version, config,
// length, CRC) before any state is touched: a corrupt or mismatched
// snapshot returns an error and leaves the pipeline exactly as it was.
func (p *Pipeline) RestoreState(blob []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var (
		r       *snapfmt.Reader
		err     error
		version uint32
	)
	for _, f := range triageFormats {
		if r, err = snapfmt.Open(f, blob); err == nil {
			version = f.Version
			break
		}
	}
	if err != nil {
		return err
	}
	cells := 0
	if version == 1 {
		cells = int(r.U32())
		r.Bytes(4 + 4 + 1) // hashes, aging, max
	}
	// The time-domain parameters must match too: open episodes and
	// candidate deadlines are only meaningful under the bucket/gap/cap/
	// window that built them, and severity under the ranking knobs.
	bucket, gap, maxLen, window := r.F64(), r.F64(), r.F64(), r.F64()
	snapMinTenants := int(r.U32())
	snapDemotion := r.F64()
	if err := r.Err(); err != nil {
		return err
	}
	if bucket != p.cfg.BucketWidth || gap != p.cfg.EpisodeGap || maxLen != p.cfg.MaxEpisodeLen ||
		window != p.cfg.Window || snapMinTenants != minTenants || snapDemotion != demotion {
		return fmt.Errorf("alerts: snapshot triage config (bucket=%g gap=%g cap=%g window=%g min=%d demote=%g) does not match pipeline (bucket=%g gap=%g cap=%g window=%g min=%d demote=%g)",
			bucket, gap, maxLen, window, snapMinTenants, snapDemotion,
			p.cfg.BucketWidth, p.cfg.EpisodeGap, p.cfg.MaxEpisodeLen, p.cfg.Window, minTenants, demotion)
	}
	if version == 1 {
		r.Bytes(4 + cells) // cursor, cells
	}
	seen := r.Bool()
	wm := r.F64()
	expiry := r.F64()
	seq := r.U64()
	nAlarms, nDeduped, nEpisodes, nIncidents := r.U64(), r.U64(), r.U64(), r.U64()

	nOpen := r.Count("open episodes")
	openList := make([]*Episode, 0, nOpen)
	openMap := make(map[epKey]*Episode, nOpen)
	for i := 0; i < nOpen && r.Err() == nil; i++ {
		ep := new(Episode)
		readEpisode(r, ep)
		k := epKey{ep.Tenant, ep.Variate}
		if _, dup := openMap[k]; dup && r.Err() == nil {
			return fmt.Errorf("alerts: triage state repeats open episode %s/%d", ep.Tenant, ep.Variate)
		}
		openList = append(openList, ep)
		openMap[k] = ep
	}

	nCands := r.Count("candidates")
	cands := make([]*candidate, 0, nCands)
	for i := 0; i < nCands && r.Err() == nil; i++ {
		c := &candidate{anchor: r.F64(), deadline: r.F64()}
		nEps := r.Count("member episodes")
		for j := 0; j < nEps && r.Err() == nil; j++ {
			var ep Episode
			readEpisode(r, &ep)
			c.eps = append(c.eps, ep)
		}
		cands = append(cands, c)
	}

	if version < 3 {
		nPairs := r.Count("lead-lag pairs")
		for i := 0; i < nPairs && r.Err() == nil; i++ {
			r.Bytes(int(r.U16())) // lead
			r.Bytes(int(r.U16())) // lag
			r.Bytes(8 * (1 + 16)) // total, bins
		}
	}
	if err := r.Done(); err != nil {
		return err
	}

	// Everything validated; commit.
	p.seenWM = seen
	p.watermark = wm
	p.nextExpiry = expiry
	p.seq = seq
	p.nAlarms, p.nDeduped, p.nEpisodes, p.nIncidents = nAlarms, nDeduped, nEpisodes, nIncidents
	p.openList = openList
	p.open = openMap
	p.cands = cands
	p.nextDeadline = math.Inf(1)
	for _, c := range cands {
		if c.deadline < p.nextDeadline {
			p.nextDeadline = c.deadline
		}
	}
	p.closed = p.closed[:0]
	p.out = p.out[:0]
	return nil
}

func writeEpisode(w *snapfmt.Writer, ep *Episode) {
	w.Str(ep.Tenant)
	w.U32(uint32(ep.Variate))
	w.F64(ep.Onset)
	w.F64(ep.End)
	w.F64(ep.Peak)
	w.F64(ep.PeakTime)
	w.U32(uint32(ep.Frames))
}

func readEpisode(r *snapfmt.Reader, ep *Episode) {
	ep.Tenant = r.Str()
	ep.Variate = int(r.U32())
	ep.Onset = r.F64()
	ep.End = r.F64()
	ep.Peak = r.F64()
	ep.PeakTime = r.F64()
	ep.Frames = int(r.U32())
}
