// Package core provides the shared plumbing for the repository's
// reproduction harness: experiment metadata, result tables, and the
// registry that cmd/experiments and the root-level benchmarks both consume.
// The modeling substance lives in the solver packages; core only
// standardizes how experiments present their outputs so every table and
// figure of EXPERIMENTS.md is regenerated through one code path.
package core

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Table is one experiment's tabular output (a paper table or the data
// series behind a figure).
type Table struct {
	// ID is the experiment identifier (e.g. "E1").
	ID string
	// Title describes what the table shows.
	Title string
	// Columns names the columns.
	Columns []string
	// Rows holds formatted cells, one slice per row.
	Rows [][]string
	// Notes carries the expected shape and any caveats.
	Notes string
}

// ErrBadTable reports a malformed table.
var ErrBadTable = errors.New("core: malformed table")

// AddRow appends a formatted row; the cell count must match the columns.
func (t *Table) AddRow(cells ...string) error {
	if len(cells) != len(t.Columns) {
		return fmt.Errorf("%w: row has %d cells for %d columns", ErrBadTable, len(cells), len(t.Columns))
	}
	t.Rows = append(t.Rows, cells)
	return nil
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) error {
	if len(t.Columns) == 0 {
		return fmt.Errorf("%w: no columns", ErrBadTable)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			for p := len(cell); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	if t.Notes != "" {
		if _, err := fmt.Fprintf(w, "note: %s\n", t.Notes); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// String renders the table to a string (for tests and logs).
func (t *Table) String() string {
	var sb strings.Builder
	_ = t.Fprint(&sb)
	return sb.String()
}

// WriteCSV emits the table as RFC-4180-style CSV (header row first), the
// format used to plot the figure-series experiments.
func (t *Table) WriteCSV(w io.Writer) error {
	if len(t.Columns) == 0 {
		return fmt.Errorf("%w: no columns", ErrBadTable)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Experiment couples an identifier with the function regenerating its
// table.
type Experiment struct {
	// ID is the experiment identifier ("E1".."E16").
	ID string
	// Title is a one-line description.
	Title string
	// Run regenerates the table, reporting solver telemetry to the
	// recorder (pass obs.Nop() to run quietly).
	Run func(obs.Recorder) (*Table, error)
}

// Registry is an ordered experiment collection.
type Registry struct {
	byID map[string]Experiment
	ids  []string
}

// NewRegistry builds a registry, rejecting duplicate IDs.
func NewRegistry(exps ...Experiment) (*Registry, error) {
	r := &Registry{byID: make(map[string]Experiment, len(exps))}
	for _, e := range exps {
		if e.ID == "" || e.Run == nil {
			return nil, fmt.Errorf("core: experiment %q incomplete", e.ID)
		}
		if _, ok := r.byID[e.ID]; ok {
			return nil, fmt.Errorf("core: duplicate experiment %q", e.ID)
		}
		r.byID[e.ID] = e
		r.ids = append(r.ids, e.ID)
	}
	return r, nil
}

// IDs returns the experiment IDs in registration order.
func (r *Registry) IDs() []string {
	out := make([]string, len(r.ids))
	copy(out, r.ids)
	return out
}

// Get returns the experiment with the given ID.
func (r *Registry) Get(id string) (Experiment, error) {
	e, ok := r.byID[id]
	if !ok {
		known := append([]string(nil), r.ids...)
		sort.Strings(known)
		return Experiment{}, fmt.Errorf("core: unknown experiment %q (known: %s)",
			id, strings.Join(known, ", "))
	}
	return e, nil
}

// RunAll executes every experiment in order, writing each table to w and
// returning the first error.
func (r *Registry) RunAll(w io.Writer) error {
	for _, id := range r.ids {
		tbl, err := r.byID[id].Run(obs.Nop())
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		if err := tbl.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}
