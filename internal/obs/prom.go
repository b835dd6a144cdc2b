package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Prom writes the Prometheus text exposition format (version 0.0.4). It is
// the one writer every tnsr exporter goes through — the run report below,
// the fleet report, both daemons' /metrics — so HELP/TYPE preambles, label
// escaping and series order follow one set of rules. Write errors are
// ignored: a scrape that breaks off is simply retried.
type Prom struct {
	w    io.Writer
	name string // the family Family last opened
}

// NewProm returns a writer onto w.
func NewProm(w io.Writer) *Prom { return &Prom{w: w} }

// Family opens a metric family: its HELP and TYPE lines. The samples that
// follow carry its name.
func (p *Prom) Family(name, typ, help string) {
	p.name = name
	fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one series of the open family. labels alternate label
// names and values; every value is escaped as the format defines (see
// promLabel). v is an integer, printed in decimal, or a float64, printed
// as %g.
func (p *Prom) Sample(v any, labels ...string) {
	io.WriteString(p.w, p.name)
	sep := "{"
	for i := 0; i+1 < len(labels); i += 2 {
		fmt.Fprintf(p.w, `%s%s="%s"`, sep, labels[i], promLabel(labels[i+1]))
		sep = ","
	}
	if sep == "," {
		io.WriteString(p.w, "}")
	}
	fmt.Fprintf(p.w, " %v\n", v)
}

// Counter writes a counter family with one unlabelled series.
func (p *Prom) Counter(name, help string, v any) {
	p.Family(name, "counter", help)
	p.Sample(v)
}

// Gauge writes a gauge family with one unlabelled series.
func (p *Prom) Gauge(name, help string, v any) {
	p.Family(name, "gauge", help)
	p.Sample(v)
}

// Sorted writes one series of the open family per key of m, labelled
// label=key, in key order.
func (p *Prom) Sorted(label string, m map[string]int64) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		p.Sample(m[k], label, k)
	}
}

// promEscaper applies the text format's three label-value escapes.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabel escapes a label value exactly as the text format defines it:
// backslash, double quote and newline become \\, \" and \n, and every other
// character is written as is. The format is UTF-8, so invalid UTF-8 (a
// proc name read from an untrusted codefile, say) becomes U+FFFD instead
// of breaking the whole scrape.
func promLabel(s string) string {
	return promEscaper.Replace(strings.ToValidUTF8(s, "\uFFFD"))
}

// WritePrometheus renders the report in the Prometheus text exposition
// format (version 0.0.4), suitable for a node-exporter textfile collector
// or a scrape endpoint fed by tnsprof -prom.
func (rep *Report) WritePrometheus(w io.Writer) {
	p := NewProm(w)
	p.Family("tnsr_run_info", "gauge", "Run identity (constant 1).")
	p.Sample(1, "workload", rep.Workload, "level", rep.Level)

	m := rep.Modes
	p.Family("tnsr_mode_instructions_total", "counter", "Instructions executed per execution mode.")
	p.Sample(m.RISCInstrs, "mode", "risc")
	p.Sample(m.InterpInstrs, "mode", "interp")

	p.Family("tnsr_mode_cycles_total", "counter", "Cyclone/R cycles priced per execution mode.")
	p.Sample(m.RISCCycles, "mode", "risc")
	p.Sample(m.InterpCycles, "mode", "interp")

	p.Gauge("tnsr_interp_fraction", "Fraction of cycles spent in interpreter mode.", m.InterpFraction)
	p.Counter("tnsr_interludes_total", "Interpreter interludes.", m.Interludes)
	p.Counter("tnsr_mode_switches_total", "Execution-mode switches, both directions.", m.Switches)

	p.Family("tnsr_escapes_total", "counter", "Escapes from translated code by reason.")
	for _, e := range rep.Escapes {
		p.Sample(e.Count, "reason", e.Reason)
	}

	p.Family("tnsr_pmap_lookups_total", "counter", "Host-side PMap probes by result.")
	p.Sample(rep.PMap.Hits, "result", "hit")
	p.Sample(rep.PMap.Lookups-rep.PMap.Hits, "result", "miss")

	p.Family("tnsr_proc_instructions_total", "counter", "Instructions per procedure and mode.")
	for _, pr := range rep.Procs {
		p.Sample(pr.RISCInstrs, "proc", pr.Name, "space", pr.Space, "mode", "risc")
		p.Sample(pr.InterpInstrs, "proc", pr.Name, "space", pr.Space, "mode", "interp")
	}

	p.Gauge("tnsr_degraded", "Whether the run was fully interpreted after integrity verification failed.",
		b2i(rep.Degraded))

	if len(rep.Quarantined) > 0 {
		p.Family("tnsr_quarantined_traps_total", "counter",
			"Traps that demoted a procedure to interpreter-only.")
		for _, q := range rep.Quarantined {
			p.Sample(q.Traps, "proc", q.Name, "space", q.Space)
		}
	}

	p.Family("tnsr_translation_phase_seconds", "gauge", "Wall time per Accelerator phase.")
	for _, ph := range rep.Phases {
		p.Sample(ph.Seconds, "phase", ph.Phase)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
