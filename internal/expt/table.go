package expt

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// Table is a rendered experiment: a title, the paper claim it reproduces,
// column headers and formatted rows. cmd/reproduce prints these.
type Table struct {
	ID     string // experiment identifier, e.g. "T1"
	Title  string
	Claim  string // the paper statement being reproduced
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "  claim: %s\n", t.Claim)
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "  "+strings.Join(t.Header, "\t"))
	for _, row := range t.Rows {
		fmt.Fprintln(tw, "  "+strings.Join(row, "\t"))
	}
	tw.Flush()
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Markdown writes the table as a GitHub-flavored markdown table
// (reproduce -markdown).
func (t *Table) Markdown(w io.Writer) {
	fmt.Fprintf(w, "### %s — %s\n\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "*Paper claim:* %s\n\n", t.Claim)
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(t.Header, " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(w, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	fmt.Fprintln(w)
	for _, n := range t.Notes {
		fmt.Fprintf(w, "*%s*\n\n", n)
	}
}

// f1 formats a float with one decimal.
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }

// f2 formats a float with two decimals.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// d formats an int.
func d(x int) string { return fmt.Sprintf("%d", x) }

// d64 formats an int64.
func d64(x int64) string { return fmt.Sprintf("%d", x) }
