// Package lifecycle manages trained detectors as long-lived, versioned
// artifacts — the piece a catalog-scale deployment needs between "the
// trainer returns a fitted backend" and "thousands of tenants serve live
// frames with it". It provides:
//
//   - Registry: a versioned on-disk artifact store with atomic publishes
//     (temp-file + sync + rename), monotonically increasing version ids,
//     per-tenant listings, quarantine of corrupt entries, a backend-kind
//     tag on every entry (AERO models and streaming-baseline
//     calibrations share one registry), and warm backend-state
//     checkpoints alongside the artifacts;
//   - Retrainer: a background worker that refits tenant detectors one at
//     a time, on a schedule or on demand through a caller-supplied
//     trainer (typically a closure over the backend kind's Train, with a
//     round-derived seed so every retrain is reproducible) and publishes
//     each result to the registry.
//
// The engine side of the lifecycle — installing a published artifact
// into a serving tenant without downtime — is engine.Subscription.Swap
// (one parsed AERO model shared by many tenants) / SwapArtifact (any
// kind); wiring a Retrainer's OnResult callback to either is all a
// deployment needs for nightly retrains (see cmd/aeroserve).
package lifecycle

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"aero/internal/core"
)

// Version identifies one published model of one tenant. Versions increase
// monotonically per tenant, starting at 1.
type Version uint64

// String renders the version the way registry filenames spell it.
func (v Version) String() string { return fmt.Sprintf("v%08d", uint64(v)) }

const (
	modelSuffix   = ".json"
	corruptSuffix = ".corrupt"
	stateFile     = "state.bin"
	tmpPrefix     = ".aero-save-"
)

// ErrNoVersions is returned by Latest when a tenant has no loadable
// published model.
var ErrNoVersions = errors.New("lifecycle: no published versions")

// Registry is a versioned on-disk store of trained backend artifacts.
// Layout:
//
//	<dir>/<tenant>/v00000001.json        published artifacts (kind-tagged envelope)
//	<dir>/<tenant>/v00000002.json.corrupt  quarantined entries
//	<dir>/<tenant>/state.bin             warm backend-state checkpoint
//
// Each entry is a {"kind", "artifact"} envelope so one registry serves
// heterogeneous backends (AERO models next to streaming-baseline
// calibrations); entries written before the envelope existed are raw
// AERO model JSON and keep loading (their missing kind tag reads as
// "aero").
//
// Every write is atomic (temp file in the same directory, sync, rename),
// so a reader — or a crashed publisher restarting — never observes a
// partially written entry. Entries that nevertheless fail to load (e.g.
// external corruption) are quarantined: renamed aside with a .corrupt
// suffix and dropped from the listing, so Latest falls back to the newest
// loadable version instead of failing forever.
//
// Version ids are never reused: the next id continues from the highest
// ever observed for the tenant — quarantined entries and restarts
// included — so "v2 was bad" stays true forever and a quarantined file is
// never overwritten by a later quarantine of the same name.
//
// A Registry is safe for concurrent use, and model reads/writes happen
// outside its lock (only the in-memory index is guarded), so slow disks
// do not serialize tenants. On-disk it must not be shared by multiple
// processes at once.
type Registry struct {
	dir string

	mu       sync.Mutex
	versions map[string][]Version // per tenant, ascending, loadable entries
	maxSeen  map[string]Version   // highest id ever observed or issued
}

// OpenRegistry opens (creating if needed) a registry rooted at dir and
// scans the existing entries: leftover temp files from crashed publishes
// are removed, version files are indexed per tenant.
func OpenRegistry(dir string) (*Registry, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lifecycle: open registry: %w", err)
	}
	r := &Registry{dir: dir, versions: map[string][]Version{}, maxSeen: map[string]Version{}}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lifecycle: open registry: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		tenant := e.Name()
		tdir := filepath.Join(dir, tenant)
		files, err := os.ReadDir(tdir)
		if err != nil {
			return nil, fmt.Errorf("lifecycle: scan tenant %q: %w", tenant, err)
		}
		var vs []Version
		for _, f := range files {
			name := f.Name()
			if strings.HasPrefix(name, tmpPrefix) {
				os.Remove(filepath.Join(tdir, name)) // crashed publish
				continue
			}
			// Quarantined entries still pin the id space: their names
			// must never be reissued.
			if v, ok := parseVersionName(strings.TrimSuffix(name, corruptSuffix)); ok {
				if v > r.maxSeen[tenant] {
					r.maxSeen[tenant] = v
				}
				if !strings.HasSuffix(name, corruptSuffix) {
					vs = append(vs, v)
				}
			}
		}
		sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
		r.versions[tenant] = vs
	}
	return r, nil
}

// Dir returns the registry's root directory.
func (r *Registry) Dir() string { return r.dir }

// parseVersionName decodes "v00000012.json" into 12.
func parseVersionName(name string) (Version, bool) {
	if !strings.HasPrefix(name, "v") || !strings.HasSuffix(name, modelSuffix) {
		return 0, false
	}
	digits := strings.TrimSuffix(strings.TrimPrefix(name, "v"), modelSuffix)
	u, err := strconv.ParseUint(digits, 10, 64)
	if err != nil || u == 0 {
		return 0, false
	}
	return Version(u), true
}

// validTenant rejects ids that would escape the registry directory.
func validTenant(tenant string) error {
	if tenant == "" || tenant == "." || tenant == ".." ||
		strings.ContainsAny(tenant, `/\`) || strings.HasPrefix(tenant, ".") {
		return fmt.Errorf("lifecycle: invalid tenant id %q", tenant)
	}
	return nil
}

func (r *Registry) modelPath(tenant string, v Version) string {
	return filepath.Join(r.dir, tenant, v.String()+modelSuffix)
}

// registryEntry is the on-disk envelope of one published version: the
// backend kind tag plus the kind's artifact (AERO model JSON, adapter
// calibration, ...). Entries written before the envelope existed are raw
// AERO model JSON; decodeEntry recognizes them by the absent kind tag.
type registryEntry struct {
	Kind     string          `json:"kind"`
	Artifact json.RawMessage `json:"artifact"`
}

// decodeEntry splits a stored blob into its backend kind and artifact.
// Legacy entries (raw model JSON, no envelope) decode as KindAERO.
func decodeEntry(blob []byte) (kind string, artifact []byte, err error) {
	var e registryEntry
	if uerr := json.Unmarshal(blob, &e); uerr != nil {
		return "", nil, fmt.Errorf("parse registry entry: %w", uerr)
	}
	if e.Kind == "" {
		return core.KindAERO, blob, nil // legacy pre-envelope entry
	}
	if len(e.Artifact) == 0 {
		return "", nil, fmt.Errorf("registry entry of kind %q has no artifact", e.Kind)
	}
	return e.Kind, e.Artifact, nil
}

// PublishArtifact stores a trained backend artifact, tagged with its
// kind, as the tenant's next version and returns the version id. The
// on-disk write is atomic (the entry appears under its final name
// complete or not at all) and happens outside the registry lock: only
// the id reservation and the index update are serialized, so concurrent
// publishers for different tenants do not queue behind one fsync. A
// failed save burns its reserved id — gaps are fine, reuse is not.
func (r *Registry) PublishArtifact(tenant, kind string, artifact []byte) (Version, error) {
	if err := validTenant(tenant); err != nil {
		return 0, err
	}
	if kind == "" {
		return 0, fmt.Errorf("lifecycle: publish %q: empty backend kind", tenant)
	}
	if !json.Valid(artifact) {
		return 0, fmt.Errorf("lifecycle: publish %q: %s artifact is not valid JSON", tenant, kind)
	}
	blob, err := json.Marshal(registryEntry{Kind: kind, Artifact: artifact})
	if err != nil {
		return 0, fmt.Errorf("lifecycle: publish %q: %w", tenant, err)
	}
	if err := os.MkdirAll(filepath.Join(r.dir, tenant), 0o755); err != nil {
		return 0, fmt.Errorf("lifecycle: publish %q: %w", tenant, err)
	}
	r.mu.Lock()
	next := r.maxSeen[tenant] + 1
	r.maxSeen[tenant] = next
	r.mu.Unlock()
	if err := retryWrite(r.modelPath(tenant, next), blob, 0o644); err != nil {
		return 0, fmt.Errorf("lifecycle: publish %q %s: %w", tenant, next, err)
	}
	r.mu.Lock()
	r.versions[tenant] = insertVersion(r.versions[tenant], next)
	r.mu.Unlock()
	return next, nil
}

// insertVersion adds v to the ascending slice (concurrent publishers can
// finish their saves out of reservation order).
func insertVersion(vs []Version, v Version) []Version {
	i := sort.Search(len(vs), func(i int) bool { return vs[i] >= v })
	vs = append(vs, 0)
	copy(vs[i+1:], vs[i:])
	vs[i] = v
	return vs
}

// Latest loads the tenant's newest loadable AERO model. Corrupt entries
// are quarantined and skipped, falling back to older versions;
// ErrNoVersions is returned once none remain. A loadable newest entry of
// a different backend kind is an error (not corruption) — callers
// serving non-AERO tenants use LatestArtifact. The model parse runs
// outside the registry lock.
func (r *Registry) Latest(tenant string) (*core.Model, Version, error) {
	kind, artifact, v, err := r.LatestArtifact(tenant)
	if err != nil {
		return nil, 0, err
	}
	if kind != core.KindAERO {
		return nil, 0, fmt.Errorf("lifecycle: tenant %q serves backend kind %q; use LatestArtifact", tenant, kind)
	}
	m, err := core.LoadBytes(artifact)
	if err != nil {
		// The envelope decoded but the artifact inside is bad: quarantine
		// and fall back, exactly as a pre-envelope corrupt model would.
		r.quarantine(tenant, v)
		return r.Latest(tenant)
	}
	return m, v, nil
}

// LatestArtifact returns the tenant's newest loadable entry as its
// backend kind tag plus the raw artifact. Corrupt entries are
// quarantined and skipped, falling back to older versions; ErrNoVersions
// is returned once none remain.
func (r *Registry) LatestArtifact(tenant string) (kind string, artifact []byte, v Version, err error) {
	if terr := validTenant(tenant); terr != nil {
		return "", nil, 0, terr
	}
	for {
		r.mu.Lock()
		vs := r.versions[tenant]
		if len(vs) == 0 {
			r.mu.Unlock()
			return "", nil, 0, fmt.Errorf("%w for tenant %q", ErrNoVersions, tenant)
		}
		v = vs[len(vs)-1]
		r.mu.Unlock()
		kind, artifact, err = r.loadVersion(tenant, v)
		if err == nil {
			return kind, artifact, v, nil
		}
		if !errors.Is(err, errEntryCorrupt) {
			return "", nil, 0, err
		}
	}
}

// Load loads one specific published version of a tenant's AERO model. A
// corrupt entry is quarantined and reported as an error.
func (r *Registry) Load(tenant string, v Version) (*core.Model, error) {
	kind, artifact, err := r.LoadArtifact(tenant, v)
	if err != nil {
		return nil, err
	}
	if kind != core.KindAERO {
		return nil, fmt.Errorf("lifecycle: version %s of %q is backend kind %q; use LoadArtifact", v, tenant, kind)
	}
	m, err := core.LoadBytes(artifact)
	if err != nil {
		r.quarantine(tenant, v)
		return nil, fmt.Errorf("%w: version %s of %q: %v", errEntryCorrupt, v, tenant, err)
	}
	return m, nil
}

// LoadArtifact loads one specific published version as its backend kind
// tag plus the raw artifact. A corrupt entry is quarantined and reported
// as an error.
func (r *Registry) LoadArtifact(tenant string, v Version) (kind string, artifact []byte, err error) {
	if terr := validTenant(tenant); terr != nil {
		return "", nil, terr
	}
	r.mu.Lock()
	found := false
	for _, have := range r.versions[tenant] {
		if have == v {
			found = true
			break
		}
	}
	r.mu.Unlock()
	if !found {
		return "", nil, fmt.Errorf("lifecycle: tenant %q has no version %s", tenant, v)
	}
	return r.loadVersion(tenant, v)
}

// errEntryCorrupt marks load failures caused by the entry's content (the
// entry was quarantined), as opposed to transient I/O trouble.
var errEntryCorrupt = errors.New("lifecycle: corrupt registry entry")

// loadVersion reads and decodes one entry's envelope. The read and the
// parse fail differently on purpose: a read error (fd exhaustion,
// permissions, an NFS blip) is retried with backoff and then returned
// as-is — quarantining on it would permanently discard a healthy entry
// over a transient condition — while a decode error means the bytes
// themselves are bad, so the entry is quarantined.
func (r *Registry) loadVersion(tenant string, v Version) (kind string, artifact []byte, err error) {
	p := r.modelPath(tenant, v)
	blob, err := retryRead(p)
	if errors.Is(err, fs.ErrNotExist) {
		// Deleted behind the registry's back: gone is gone — drop the
		// entry so Latest falls back instead of failing forever.
		r.quarantine(tenant, v)
		return "", nil, fmt.Errorf("%w: version %s of %q vanished", errEntryCorrupt, v, tenant)
	}
	if err != nil {
		return "", nil, fmt.Errorf("lifecycle: read version %s of %q: %w", v, tenant, err)
	}
	kind, artifact, err = decodeEntry(blob)
	if err != nil {
		r.quarantine(tenant, v)
		return "", nil, fmt.Errorf("%w: version %s of %q: %v", errEntryCorrupt, v, tenant, err)
	}
	return kind, artifact, nil
}

// quarantine renames a version that failed to load aside (so it can be
// inspected) and drops it from the listing. Ids are never reissued, so
// the .corrupt name is unique and preserved evidence is never clobbered.
func (r *Registry) quarantine(tenant string, v Version) {
	p := r.modelPath(tenant, v)
	os.Rename(p, p+corruptSuffix) // best effort: dropping the entry is what matters
	r.mu.Lock()
	vs := r.versions[tenant]
	for i, have := range vs {
		if have == v {
			r.versions[tenant] = append(vs[:i], vs[i+1:]...)
			break
		}
	}
	r.mu.Unlock()
}

// Versions lists a tenant's published versions in ascending order (the
// per-tenant manifest). The slice is a copy owned by the caller.
func (r *Registry) Versions(tenant string) []Version {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Version(nil), r.versions[tenant]...)
}

// Tenants lists every tenant with at least one published version, sorted.
func (r *Registry) Tenants() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for tenant, vs := range r.versions {
		if len(vs) > 0 {
			out = append(out, tenant)
		}
	}
	sort.Strings(out)
	return out
}

// SaveState checkpoints a warm detector-state blob (see
// core.StreamDetector.SnapshotState) for the tenant, atomically replacing
// any previous checkpoint.
func (r *Registry) SaveState(tenant string, blob []byte) error {
	if err := validTenant(tenant); err != nil {
		return err
	}
	tdir := filepath.Join(r.dir, tenant)
	if err := os.MkdirAll(tdir, 0o755); err != nil {
		return fmt.Errorf("lifecycle: save state %q: %w", tenant, err)
	}
	if err := retryWrite(filepath.Join(tdir, stateFile), blob, 0o644); err != nil {
		return fmt.Errorf("lifecycle: save state %q: %w", tenant, err)
	}
	return nil
}

// LoadState returns the tenant's checkpointed detector state, or an error
// wrapping fs.ErrNotExist when none has been saved.
func (r *Registry) LoadState(tenant string) ([]byte, error) {
	if err := validTenant(tenant); err != nil {
		return nil, err
	}
	blob, err := retryRead(filepath.Join(r.dir, tenant, stateFile))
	if err != nil {
		return nil, fmt.Errorf("lifecycle: load state %q: %w", tenant, err)
	}
	return blob, nil
}
