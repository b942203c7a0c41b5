package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"time"
)

// cell is one value of a result table, formatted once for each output.
type cell struct {
	text string // in the aligned table Render prints
	csv  string // in the file WriteCSV emits
}

// The typed constructors: a column's getter picks one, and with it how the
// value reads in both outputs.

// dur is a duration: "12.34s" in text, plain seconds in CSV.
func dur(d time.Duration) cell { return cell{fmt.Sprintf("%.2fs", d.Seconds()), fmtF(d.Seconds())} }

// ratio is a fraction: a percentage in text, the fraction in CSV.
func ratio(f float64) cell { return cell{pct(f), fmtF(f)} }

// num is a dimensionless number, six significant digits in both outputs.
func num(f float64) cell { return cell{fmtF(f), fmtF(f)} }

// fixed is num with a fixed number of decimals in text (the paper's tables).
func fixed(f float64, decimals int) cell {
	return cell{strconv.FormatFloat(f, 'f', decimals, 64), fmtF(f)}
}

func count[N int | int64 | uint64](n N) cell { return text(fmt.Sprint(n)) }

func text(s string) cell { return cell{s, s} }

// flagged is a bool: true/false in CSV; in text, mark when set and blank when not.
func flagged(b bool, mark string) cell {
	if !b {
		mark = ""
	}
	return cell{mark, strconv.FormatBool(b)}
}

func pct(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

func fmtF(f float64) string { return fmt.Sprintf("%.6g", f) }

// outputs says which of the two outputs carry a column.
type outputs uint8

const (
	both outputs = iota
	csvOnly
	textOnly
)

// column declares one column of a result, once: its name (the header of
// both outputs), how to read it off a row, and which outputs carry it.
// Render and WriteCSV of every tabular result are renderTable and writeCSV
// over the result's column list, so the two cannot drift apart.
type column[R any] struct {
	name string
	get  func(R) cell
	in   outputs
}

// records lays the rows out for one output (csvOnly or textOnly): the header
// of the columns it carries, then a record per row.
func records[R any](cols []column[R], rows []R, out outputs) [][]string {
	recs := make([][]string, 1+len(rows))
	for _, c := range cols {
		if c.in != both && c.in != out {
			continue
		}
		recs[0] = append(recs[0], c.name)
		for i, r := range rows {
			v := c.get(r)
			if out == csvOnly {
				recs[1+i] = append(recs[1+i], v.csv)
			} else {
				recs[1+i] = append(recs[1+i], v.text)
			}
		}
	}
	return recs
}

// writeCSV emits rows as CSV under the columns' names, so downstream users
// can regenerate the paper's plots with their own tooling.
func writeCSV[R any](w io.Writer, cols []column[R], rows []R) error {
	return writeRecords(w, records(cols, rows, csvOnly))
}

func writeRecords(w io.Writer, recs [][]string) error { return csv.NewWriter(w).WriteAll(recs) }

// stack puts record sets (header first) one under another beneath the union
// of their headers, in order of first appearance: a file that holds more
// than one table (Figure 2's two panels). A set leaves blank the columns it
// does not have.
func stack(sets ...[][]string) [][]string {
	at := map[string]int{}
	out := [][]string{nil}
	for _, set := range sets {
		for _, name := range set[0] {
			if _, ok := at[name]; !ok {
				at[name] = len(out[0])
				out[0] = append(out[0], name)
			}
		}
	}
	for _, set := range sets {
		for _, rec := range set[1:] {
			row := make([]string, len(out[0]))
			for j, s := range rec {
				row[at[set[0][j]]] = s
			}
			out = append(out, row)
		}
	}
	return out
}

// renderTable prints rows as an aligned text table under the columns' names.
func renderTable[R any](title string, cols []column[R], rows []R) string {
	recs := records(cols, rows, textOnly)
	widths := make([]int, len(recs[0]))
	for _, rec := range recs {
		for j, s := range rec {
			widths[j] = max(widths[j], len(s))
		}
	}
	rule := make([]string, len(widths))
	for j, w := range widths {
		rule[j] = strings.Repeat("-", w)
	}
	var b strings.Builder
	if title != "" {
		b.WriteString(title + "\n")
	}
	for _, rec := range slices.Insert(recs, 1, rule) {
		for j, s := range rec {
			if j > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[j], s)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
