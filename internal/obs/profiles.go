package obs

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"time"
)

// ProfileEntry describes one captured pprof profile in the ring.
type ProfileEntry struct {
	// Name is the file name inside the ring directory.
	Name string `json:"name"`
	// Kind is "cpu" or "heap".
	Kind string `json:"kind"`
	// Start and End bound the capture window (equal for heap snapshots),
	// so slow traces can be joined to the profiles that overlapped them.
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Bytes is the profile file size.
	Bytes int64 `json:"bytes"`
}

// ProfileRing is a bounded on-disk ring of periodic pprof captures: the
// continuous-profiling store behind serve's -profile-dir. When the ring
// is full the oldest file is deleted, so disk usage stays bounded no
// matter how long the process runs.
type ProfileRing struct {
	mu      sync.Mutex
	dir     string
	max     int
	seq     uint64
	entries []ProfileEntry // oldest first
}

// DefaultProfileMax is the ring size NewProfileRing uses when max < 1.
const DefaultProfileMax = 32

// NewProfileRing builds a ring storing at most max profiles (max < 1
// means DefaultProfileMax) under dir, creating the directory if needed.
func NewProfileRing(dir string, max int) (*ProfileRing, error) {
	if max < 1 {
		max = DefaultProfileMax
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("profile ring: %w", err)
	}
	return &ProfileRing{dir: dir, max: max}, nil
}

// Dir reports the ring directory.
func (r *ProfileRing) Dir() string { return r.dir }

// CaptureCPU records a CPU profile for d (or until ctx is canceled,
// whichever comes first) and adds it to the ring.
func (r *ProfileRing) CaptureCPU(ctx context.Context, d time.Duration) (ProfileEntry, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if d <= 0 {
		d = time.Second
	}
	name, path := r.nextName("cpu")
	f, err := os.Create(path)
	if err != nil {
		return ProfileEntry{}, err
	}
	start := time.Now()
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		return ProfileEntry{}, err
	}
	t := time.NewTimer(d)
	select {
	case <-t.C:
	case <-ctx.Done():
		t.Stop()
	}
	pprof.StopCPUProfile()
	end := time.Now()
	if err := f.Close(); err != nil {
		os.Remove(path)
		return ProfileEntry{}, err
	}
	return r.add(name, "cpu", path, start, end)
}

// CaptureHeap snapshots the heap profile into the ring.
func (r *ProfileRing) CaptureHeap() (ProfileEntry, error) {
	name, path := r.nextName("heap")
	f, err := os.Create(path)
	if err != nil {
		return ProfileEntry{}, err
	}
	at := time.Now()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		os.Remove(path)
		return ProfileEntry{}, err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return ProfileEntry{}, err
	}
	return r.add(name, "heap", path, at, at)
}

// List returns the ring's entries newest-first.
func (r *ProfileRing) List() []ProfileEntry {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]ProfileEntry, len(r.entries))
	for i, e := range r.entries {
		out[len(out)-1-i] = e
	}
	return out
}

// Overlapping returns entries whose capture window intersects
// [start, end], newest-first — the join slow traces use to surface
// "what was the CPU doing while this request ran". A nil ring
// (profiling off) returns nil.
func (r *ProfileRing) Overlapping(start, end time.Time) []ProfileEntry {
	if r == nil {
		return nil
	}
	out := r.List()
	kept := out[:0]
	for _, e := range out {
		if !e.Start.After(end) && !e.End.Before(start) {
			kept = append(kept, e)
		}
	}
	return kept
}

func (r *ProfileRing) nextName(kind string) (name, path string) {
	r.mu.Lock()
	r.seq++
	name = fmt.Sprintf("%s-%06d.pprof", kind, r.seq)
	r.mu.Unlock()
	return name, filepath.Join(r.dir, name)
}

func (r *ProfileRing) add(name, kind, path string, start, end time.Time) (ProfileEntry, error) {
	fi, err := os.Stat(path)
	var size int64
	if err == nil {
		size = fi.Size()
	}
	e := ProfileEntry{Name: name, Kind: kind, Start: start, End: end, Bytes: size}
	r.mu.Lock()
	r.entries = append(r.entries, e)
	var evict []string
	for len(r.entries) > r.max {
		evict = append(evict, r.entries[0].Name)
		r.entries = r.entries[1:]
	}
	sort.SliceStable(r.entries, func(i, j int) bool {
		return r.entries[i].Start.Before(r.entries[j].Start)
	})
	r.mu.Unlock()
	for _, n := range evict {
		os.Remove(filepath.Join(r.dir, n))
	}
	return e, nil
}
