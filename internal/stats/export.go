package stats

import (
	"encoding/csv"
	"fmt"
	"strings"
)

// CSV renders the figure as an RFC-4180 table: one row per distinct x,
// one column per series, ready for any plotting tool. Notes become
// trailing comment-style rows prefixed with "#".
func (f *Figure) CSV() (string, error) {
	var b strings.Builder
	w := csv.NewWriter(&b)
	if err := w.WriteAll(f.rows("", func(y float64) string { return fmt.Sprintf("%g", y) })); err != nil {
		return "", err
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "# %s\n", n)
	}
	return b.String(), nil
}

// Markdown renders the figure as a GitHub-flavored table, for dropping
// measured results straight into EXPERIMENTS-style documents.
func (f *Figure) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", f.ID, f.Title)
	for i, row := range f.rows("—", trimFloat) {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
		if i == 0 {
			b.WriteString("|" + strings.Repeat("---|", len(row)) + "\n")
		}
	}
	fmt.Fprintf(&b, "\n*(%s)*\n", f.YLabel)
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "\n> %s\n", n)
	}
	return b.String()
}
