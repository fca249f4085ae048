package obs

// Multi fans every Recorder event out to several recorders — a solve can
// simultaneously build more than one Trace, or a Trace and a
// MetricsRecorder. Disabled (nil or Nop) recorders are filtered at
// construction, so a Multi of nothing collapses to Nop and a Multi of
// one is that recorder itself, preserving the zero-cost-when-disabled
// property.
func Multi(recs ...Recorder) Recorder {
	live := make([]Recorder, 0, len(recs))
	for _, r := range recs {
		if r != nil && r.Enabled() {
			live = append(live, r)
		}
	}
	switch len(live) {
	case 0:
		return nop
	case 1:
		return live[0]
	}
	return multiRec(live)
}

type multiRec []Recorder

func (m multiRec) Enabled() bool { return true }

func (m multiRec) Span(name string, attrs ...Attr) Recorder {
	children := make(multiRec, len(m))
	for i, r := range m {
		children[i] = r.Span(name, attrs...)
	}
	return children
}

func (m multiRec) End() {
	for _, r := range m {
		r.End()
	}
}

func (m multiRec) Iter(n int, residual float64) {
	for _, r := range m {
		r.Iter(n, residual)
	}
}

func (m multiRec) IterLabel(n int, residual float64, label string) {
	for _, r := range m {
		r.IterLabel(n, residual, label)
	}
}

func (m multiRec) Set(attrs ...Attr) {
	for _, r := range m {
		r.Set(attrs...)
	}
}

// OpenPath implements guard.SpanPather by returning the first non-empty
// open-span path among the fan-out targets (typically the Trace).
func (m multiRec) OpenPath() []string {
	for _, r := range m {
		if p, ok := r.(interface{ OpenPath() []string }); ok {
			if path := p.OpenPath(); len(path) > 0 {
				return path
			}
		}
	}
	return nil
}
