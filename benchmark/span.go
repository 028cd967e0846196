package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the traced round. Spans of one operation
// share Op; Parent is the ID of the span that caused this one (0 for a
// root). Region is the pool index the operation ran on, so replayed probe
// spans can be joined to the public call they decompose. Times are
// nanoseconds since the recorder was created.
type span struct {
	Op     int              `json:"op"`
	ID     int              `json:"id"`
	Parent int              `json:"parent"`
	Name   string           `json:"name"`
	Region int              `json:"region"`
	Start  int64            `json:"start_ns"`
	End    int64            `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// recorder keeps spans in memory until the run ends. It is locked because
// the remote workload's server handlers record from their own goroutines.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) now() int64 { return time.Since(r.epoch).Nanoseconds() }

// start opens a span now and returns its id; finish closes it.
func (r *recorder) start(op, parent int, name string, region int) int {
	return r.add(span{Op: op, Parent: parent, Name: name, Region: region, Start: r.now()})
}

func (r *recorder) finish(id int, counts map[string]int64) {
	end := r.now()
	r.mu.Lock()
	r.spans[id-1].End = end
	r.spans[id-1].Counts = counts
	r.mu.Unlock()
}

func (r *recorder) startOf(id int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans[id-1].Start
}

// add records a completed span and returns its id.
func (r *recorder) add(s span) int {
	r.mu.Lock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s.ID
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span id, the span's duration minus the part of its
// interval that its children cover. Overlapping children are counted once
// and a child is clipped to its parent.
func selfTimes(spans []span) map[int]int64 {
	type iv struct{ a, b int64 }
	kids := make(map[int][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered, edge := int64(0), s.Start
		for _, k := range ivs {
			a, b := max(k.a, edge), min(k.b, s.End)
			if b > a {
				covered += b - a
				edge = b
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// selfByName returns the median self time of the spans of each name, in µs:
// where, layer by layer, the traced operations spent their time.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	byName := map[string][]float64{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], float64(self[s.ID])/1e3)
	}
	out := make(map[string]float64, len(byName))
	for name, us := range byName {
		out[name] = median(us)
	}
	return out
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
