package experiment

import (
	"fmt"
	"strings"
)

// Table is a rendered experiment result: one paper figure's data.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	// Notes carry caveats (parameters used, substitutions).
	Notes []string
	// Events is the total kernel event count across every run behind
	// the table, so dcfbench can count the events behind a figure
	// workload. Not rendered.
	Events uint64
}

// AddRow appends a row of already-formatted cells.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiment: row with %d cells in %d-column table %q",
			len(cells), len(t.Columns), t.Title))
	}
	t.Rows = append(t.Rows, cells)
}

// Render formats the table as aligned ASCII.
func (t *Table) Render() string {
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
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	sep := make([]string, len(t.Columns))
	hdr := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		hdr[i] = pad(c, widths[i])
		sep[i] = strings.Repeat("-", widths[i])
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(hdr, " | "))
	fmt.Fprintf(&b, "|-%s-|\n", strings.Join(sep, "-|-"))
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, cell := range row {
			cells[i] = pad(cell, widths[i])
		}
		fmt.Fprintf(&b, "| %s |\n", strings.Join(cells, " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (quoting cells that
// contain commas or quotes).
func (t *Table) CSV() string {
	var b strings.Builder
	writeCSVRow(&b, t.Columns)
	for _, row := range t.Rows {
		writeCSVRow(&b, row)
	}
	return b.String()
}

func writeCSVRow(b *strings.Builder, cells []string) {
	for i, c := range cells {
		if i > 0 {
			b.WriteByte(',')
		}
		if strings.ContainsAny(c, ",\"\n") {
			b.WriteByte('"')
			b.WriteString(strings.ReplaceAll(c, `"`, `""`))
			b.WriteByte('"')
		} else {
			b.WriteString(c)
		}
	}
	b.WriteByte('\n')
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// fmtF renders a float with one decimal.
func fmtF(v float64) string { return fmt.Sprintf("%.1f", v) }

// fmtCI renders mean ± 95% CI.
func fmtCI(mean, ci float64) string { return fmt.Sprintf("%.1f±%.1f", mean, ci) }

// fmtF3 renders a float with three decimals (fairness indices).
func fmtF3(v float64) string { return fmt.Sprintf("%.3f", v) }
