package markov

import (
	"fmt"
	"io"
	"strings"
)

// WriteDOT renders the chain as a Graphviz digraph: one node per state,
// one edge per transition labeled with its rate. highlight marks states
// (e.g., failure states) with a distinct fill.
func (c *CTMC) WriteDOT(w io.Writer, title string, highlight func(state string) bool) error {
	if len(c.names) == 0 {
		return ErrEmptyChain
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "digraph %q {\n", title)
	sb.WriteString("  rankdir=LR;\n  node [shape=circle, fontsize=11];\n")
	for _, name := range c.names {
		if highlight != nil && highlight(name) {
			fmt.Fprintf(&sb, "  %q [style=filled, fillcolor=lightcoral];\n", name)
		} else {
			fmt.Fprintf(&sb, "  %q;\n", name)
		}
	}
	for k := range c.from {
		t := c.edge(k)
		fmt.Fprintf(&sb, "  %q -> %q [label=\"%g\"];\n", c.names[t.from], c.names[t.to], t.rate)
	}
	sb.WriteString("}\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
